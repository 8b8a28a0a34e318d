package core

import (
	"fmt"
	"sort"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// This file implements the standing-query half of the matcher: the
// same pruning funnel as search (state-order filter -> self-exclusion
// -> O(1) prefix-sum lower bound -> bounded exact distance), but
// driven incrementally by vertex arrival instead of a corpus scan. A
// StandingQuery precomputes every query-side aggregate once at
// registration; each arriving vertex then evaluates only the suffix
// windows it completes, so the per-vertex cost is independent of the
// corpus size (the subscription subsystem in internal/subscribe
// multiplexes many StandingQueries over the ingest hook).

// StandingQuery is a registered pattern with its precomputed
// query-side funnel aggregates. It is immutable after construction
// and safe for concurrent use (evaluations share only read-only
// state).
type StandingQuery struct {
	params    Params
	q         Query
	n         int
	vw        []float64
	wsum      float64
	vwMin     float64
	wa, wf    float64
	ampQ      float64
	durQ      float64
	threshold float64
	k         int
}

// StandingCounts is the per-evaluation funnel breakdown. The counts
// partition the candidate windows exactly:
//
//	Candidates = StateRejected + SelfExcluded + LBPruned
//	           + DistRejected + Matched
//
// which is the reconciliation invariant the subscribe.eval span and
// the subscription metrics are both checked against.
type StandingCounts struct {
	Candidates    int
	StateRejected int
	SelfExcluded  int
	LBPruned      int
	DistRejected  int
	Matched       int
}

// Add accumulates another evaluation's counts.
func (c *StandingCounts) Add(o StandingCounts) {
	c.Candidates += o.Candidates
	c.StateRejected += o.StateRejected
	c.SelfExcluded += o.SelfExcluded
	c.LBPruned += o.LBPruned
	c.DistRejected += o.DistRejected
	c.Matched += o.Matched
}

// NewStandingQuery validates and precomputes a standing query.
// threshold <= 0 selects the params' distance threshold. k > 0 caps
// each evaluation batch to the k best new matches (ranked by the same
// total order the search uses); k == 0 emits every match within the
// threshold.
func NewStandingQuery(p Params, q Query, threshold float64, k int) (*StandingQuery, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(q.Seq) < 2 {
		return nil, ErrTooShort
	}
	if err := q.Seq.Validate(); err != nil {
		return nil, fmt.Errorf("core: standing query pattern: %w", err)
	}
	if k < 0 {
		return nil, fmt.Errorf("core: standing query needs k >= 0, got %d", k)
	}
	if threshold <= 0 {
		threshold = p.DistThreshold
	}
	sq := &StandingQuery{
		params:    p,
		q:         q,
		n:         len(q.Seq),
		vw:        p.VertexWeights(nil, len(q.Seq)),
		ampQ:      dispNormSum(q.Seq),
		durQ:      q.Seq.Duration(),
		threshold: threshold,
		k:         k,
	}
	sq.wsum, sq.vwMin = sumMin(sq.vw)
	sq.wa, sq.wf = p.ampFreqWeights()
	return sq, nil
}

// Pattern returns the registered query sequence (read-only).
func (sq *StandingQuery) Pattern() plr.Sequence { return sq.q.Seq }

// Threshold returns the effective acceptance threshold.
func (sq *StandingQuery) Threshold() float64 { return sq.threshold }

// K returns the per-batch result cap (0 = uncapped).
func (sq *StandingQuery) K() int { return sq.k }

// EvalRange evaluates the windows of st that END at vertex indices in
// [fromEnd, toEnd): exactly the suffix windows completed by the
// vertices appended since the last evaluation, when the caller tracks
// fromEnd as its per-stream cursor. The funnel and acceptance rule
// are byte-identical to one FindSimilar pass restricted to those
// windows, so a standing query's cumulative matches equal the diff of
// repeated full searches.
func (sq *StandingQuery) EvalRange(st *store.Stream, fromEnd, toEnd int) ([]Match, StandingCounts, error) {
	var counts StandingCounts
	seq, amps := st.Snapshot()
	if toEnd > len(seq) {
		toEnd = len(seq)
	}
	n := sq.n
	if fromEnd < n-1 {
		fromEnd = n - 1
	}
	if fromEnd >= toEnd {
		return nil, counts, nil
	}
	p := &sq.params
	rel := relationOf(sq.q, st)
	ws := p.StreamWeight(rel)
	useLB := len(amps) == len(seq)
	var matches []Match
	for e := fromEnd; e < toEnd; e++ {
		j := e - n + 1
		counts.Candidates++
		cand := seq[j : e+1]
		if p.RequireStateOrder && !statesEqual(sq.q.Seq, cand) {
			counts.StateRejected++
			continue
		}
		if rel == SameSession && cand[n-1].T >= sq.q.Seq[0].T {
			counts.SelfExcluded++
			continue
		}
		if useLB {
			ampC := amps[e] - amps[j]
			durC := seq[e].T - seq[j].T
			if lowerBound(sq.wa, sq.wf, ws, sq.ampQ, sq.durQ, ampC, durC, sq.vwMin, sq.wsum) > sq.threshold {
				counts.LBPruned++
				continue
			}
		}
		d, within := weightedDistance(sq.q.Seq, cand, sq.vw, sq.wa, sq.wf, ws, sq.wsum, sq.threshold)
		if !within || d > sq.threshold {
			counts.DistRejected++
			continue
		}
		counts.Matched++
		matches = append(matches, Match{
			Stream:   st,
			Start:    j,
			N:        n,
			Relation: rel,
			Distance: d,
			Weight:   ws / (1 + d),
		})
	}
	if sq.k > 0 && len(matches) > sq.k {
		sort.Slice(matches, func(a, b int) bool { return matchLess(matches[a], matches[b]) })
		dropped := len(matches) - sq.k
		counts.Matched -= dropped
		counts.DistRejected += dropped
		matches = matches[:sq.k]
		// Restore start order so event emission stays in stream order.
		sort.Slice(matches, func(a, b int) bool { return matches[a].Start < matches[b].Start })
	}
	return matches, counts, nil
}
