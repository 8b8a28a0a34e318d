package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// oracleDB builds a randomized two-dimensional database whose streams
// mostly follow the EX->EOE->IN rotation but are interrupted by
// irregular segments, so the state-order filter has real work to do.
// The first stream is duplicated under an extra patient, producing
// exact distance ties across patients.
func oracleDB(t *testing.T, rng *rand.Rand) *store.DB {
	t.Helper()
	db := store.NewDB()
	var first plr.Sequence
	patients := 2 + rng.Intn(3)
	for p := 0; p < patients; p++ {
		pat, err := db.AddPatient(store.PatientInfo{ID: fmt.Sprintf("P%d", p)})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 1+rng.Intn(3); s++ {
			seq := randomStream(rng, 20+rng.Intn(50))
			if first == nil {
				first = seq
			}
			if err := pat.AddStream(fmt.Sprintf("S%d", s)).Append(seq...); err != nil {
				t.Fatal(err)
			}
		}
	}
	dup, err := db.AddPatient(store.PatientInfo{ID: "PDUP"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.AddStream("S0").Append(first...); err != nil {
		t.Fatal(err)
	}
	return db
}

// addScaledCopies registers copies of seq with every position and
// time scaled by 1+0.02i under patient PSCALE. Against a query taken
// from seq, the aligned window of each copy differs only by collinear,
// same-signed segment changes, so with vertex weights off the O(1)
// lower bound equals the exact distance up to its slack: the funnel's
// pruning comparisons are exercised at their tightest.
func addScaledCopies(t *testing.T, db *store.DB, seq plr.Sequence) {
	t.Helper()
	pat, err := db.AddPatient(store.PatientInfo{ID: "PSCALE"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		c := 1 + 0.02*float64(i)
		cp := make(plr.Sequence, len(seq))
		for j, v := range seq {
			cp[j] = plr.Vertex{T: v.T * c, Pos: []float64{v.Pos[0] * c, v.Pos[1] * c}, State: v.State}
		}
		if err := pat.AddStream(fmt.Sprintf("S%d", i)).Append(cp...); err != nil {
			t.Fatal(err)
		}
	}
}

// randomStream returns n vertices of jittered breathing with roughly
// one irregular segment in eight.
func randomStream(rng *rand.Rand, n int) plr.Sequence {
	cycle := []plr.State{plr.EX, plr.EOE, plr.IN}
	seq := make(plr.Sequence, n)
	x, y, tm := 0.0, 10.0, 0.0
	phase := 0
	for i := range seq {
		st := plr.IRR
		if rng.Intn(8) != 0 {
			st = cycle[phase%3]
			phase++
		}
		seq[i] = plr.Vertex{T: tm, Pos: []float64{x, y}, State: st}
		amp := 8 + 4*rng.Float64()
		switch st {
		case plr.EX:
			y -= amp
		case plr.IN:
			y += amp
		default:
			y += rng.Float64() - 0.5
		}
		x += 0.5 * (rng.Float64() - 0.5)
		tm += 0.4 + rng.Float64()
	}
	return seq
}

// exhaustiveOracle scores every window of the query's length in every
// (restricted) stream with the public Params.Distance, keeps those the
// search contract admits — same state order (unless ablated), outside
// the query's own present, distance within threshold — and returns the
// k best (k == 0: all) in matchLess order.
func exhaustiveOracle(t *testing.T, p Params, db *store.DB, q Query, restrict map[string]bool, k int, threshold float64) []Match {
	t.Helper()
	n := len(q.Seq)
	var out []Match
	ord := 0
	for _, st := range db.Streams() {
		if restrict != nil && !restrict[st.PatientID] {
			continue
		}
		rel := relationOf(q, st)
		seq := st.Seq()
		for j := 0; j+n <= len(seq); j++ {
			cand := seq[j : j+n]
			if rel == SameSession && cand[n-1].T >= q.Seq[0].T {
				continue
			}
			d, err := p.Distance(q.Seq, cand, rel)
			if errors.Is(err, ErrStateMismatch) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if d > threshold {
				continue
			}
			out = append(out, Match{
				Stream: st, Start: j, N: n, Relation: rel,
				Distance: d, Weight: p.StreamWeight(rel) / (1 + d), ord: ord,
			})
		}
		ord++
	}
	sort.Slice(out, func(a, b int) bool { return matchLess(out[a], out[b]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestSearchMatchesExhaustiveOracle checks the pruning funnel against
// brute force rather than against itself: on random databases, scanned
// with and without the n-gram index, probed through the signature
// index, with the state-order layer ablated and with vertex weights
// off (where the lower bound is tight), FindSimilar, TopK and
// FindSimilarTopK at Parallelism 1 and 2, traced and untraced, must
// return exactly the oracle's matches with bit-identical distances.
func TestSearchMatchesExhaustiveOracle(t *testing.T) {
	nonEmpty := 0
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		db := oracleDB(t, rng)
		streams := db.Streams()
		src := streams[rng.Intn(len(streams))]
		seq := src.Seq()
		n := 6 + rng.Intn(10)
		q := NewQuery(seq[len(seq)-n:], src.PatientID, src.SessionID)
		if trial%3 == 2 {
			// Ad-hoc query: no provenance, so no self-exclusion.
			q = NewQuery(seq[len(seq)-n:], "", "")
		}
		addScaledCopies(t, db, seq)
		var restrict map[string]bool
		if trial%4 == 3 {
			restrict = map[string]bool{src.PatientID: true, "PDUP": true, "PSCALE": true}
		}

		base := DefaultParams()
		base.DistThreshold = 1 + 7*rng.Float64()
		ablated := base
		ablated.RequireStateOrder = false
		unweighted := base
		unweighted.UseVertexWeights = false
		idx := buildIndex(t, db)

		type variant struct {
			name   string
			params Params
			index  bool
			ngrams bool
		}
		withIndex := base
		withIndex.UseIndex = true
		variants := []variant{
			{name: "scan", params: base},
			{name: "ngram", params: base, ngrams: true},
			{name: "sigindex", params: withIndex, index: true},
			{name: "ablated", params: ablated},
			{name: "unweighted", params: unweighted},
		}
		for _, v := range variants {
			if v.ngrams {
				db.EnableIndexes()
			}
			wantSim := exhaustiveOracle(t, v.params, db, q, restrict, 0, v.params.DistThreshold)
			if len(wantSim) > 0 {
				nonEmpty++
			}
			for _, par := range []int{1, 2} {
				p := v.params
				p.Parallelism = par
				m, err := NewMatcher(db, p)
				if err != nil {
					t.Fatal(err)
				}
				if v.index {
					m.Index = idx
				}
				for _, traced := range []bool{false, true} {
					ctx := context.Background()
					var root *obs.Span
					if traced {
						root = obs.StartTrace("test.oracle", "test", obs.SpanContext{}, obs.NewCollector(4, time.Hour))
						ctx = obs.ContextWithSpan(ctx, root)
					}
					label := fmt.Sprintf("trial %d %s par=%d traced=%v", trial, v.name, par, traced)
					got, err := m.FindSimilarCtx(ctx, q, restrict)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, label+" FindSimilar", wantSim, got)
					for _, k := range []int{1, 4, 60} {
						got, err := m.TopKCtx(ctx, q, k, restrict)
						if err != nil {
							t.Fatal(err)
						}
						assertSameMatches(t, fmt.Sprintf("%s TopK k=%d", label, k),
							exhaustiveOracle(t, p, db, q, restrict, k, inf), got)
						got, err = m.FindSimilarTopKCtx(ctx, q, k, restrict)
						if err != nil {
							t.Fatal(err)
						}
						assertSameMatches(t, fmt.Sprintf("%s FindSimilarTopK k=%d", label, k),
							exhaustiveOracle(t, p, db, q, restrict, k, p.DistThreshold), got)
					}
					root.Finish()
				}
			}
		}
	}
	t.Logf("%d of 60 threshold oracles are non-empty", nonEmpty)
	if nonEmpty < 15 {
		t.Fatalf("only %d of 60 threshold oracles found any match; the test data is too sparse to check the funnel", nonEmpty)
	}
}
