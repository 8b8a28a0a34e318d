package core

import (
	"math"
	"time"

	"stsmatch/internal/sigindex"
	"stsmatch/internal/store"
)

// Index-backed candidate generation (PR 7). Instead of asking every
// stream for windows matching the query's state order, the search
// probes the shared window-signature index once per round: the probe
// returns, per stream, exactly the window starts whose signature
// matches AND whose amplitude/duration aggregates fall inside an
// envelope derived from the acceptance bound. The envelope is the
// inverse image of the O(1) lower bound, so every candidate the funnel
// could possibly accept is inside it — which is why the probed path
// returns byte-identical results to the scan path.
//
// Threshold mode needs a single probe at the threshold. Top-k mode
// starts from a deliberately tight envelope (most queries resolve in
// their immediate amplitude neighborhood) and widens it geometrically
// until one of three conditions proves no better candidate exists
// outside the envelope:
//
//  1. the probe was exhaustive — the envelope admitted every posting
//     under the signature, so widening cannot add candidates;
//  2. the bound reached the distance threshold — nothing beyond it can
//     be accepted anyway;
//  3. the result heap is full and its k-th distance is within the
//     probed bound — any unseen candidate has a lower bound, hence a
//     distance, strictly above the current k-th, so it cannot displace
//     a result even on a tie-break.
//
// The seed divisor and widening factor trade probe rounds against
// wasted candidate work: each round rescans everything the previous,
// tighter envelope admitted, so an over-tight seed pays for rounds a
// dense corpus immediately outgrows, while an over-loose seed scans
// the whole threshold ball when the top-k lived nearby. Seeding at a
// quarter of the threshold resolves dense-corpus top-k queries in one
// round (benchmatch -corpus-scale 100) and costs at most one extra
// round — T/4 then T — on sparse ones.
const (
	topKSeedDiv     = 4
	topKWidenFactor = 4
)

// probeStats accumulates one search's probe telemetry for the
// "index.probe" trace span; counts mirror the stsmatch_sigindex_*
// metric deltas the same search produces.
type probeStats struct {
	used            bool
	probes          int
	widenings       int
	rounds          int
	candidates      int
	cells           int
	fallbackStreams int
	dur             time.Duration
}

// indexSearchable reports whether a query of n vertices can route
// candidate generation through the signature index: an index is
// attached and enabled, the state-order filter is on (the ablation
// path needs every window, which the index cannot enumerate), and the
// query's segment count lies inside the indexed window range.
func (m *Matcher) indexSearchable(n int) bool {
	return m.Index != nil && m.Params.UseIndex && m.Params.RequireStateOrder &&
		m.Index.Config().Covers(n-1)
}

// envelope converts an acceptance bound into the probe rectangle
// guaranteed to contain every candidate whose O(1) lower bound is
// within the bound. Inverting distanceLowerBound with the stream
// weight at its maximum,
//
//	bound >= vwMin * (wa*|Δamp| + wf*|Δdur| - slack·mags) / (ws·wsum)
//
// gives the half-width budget g = bound·wsMax·wsum/vwMin, and the
// slack the lower bound deflates itself by is re-inflated here into a
// pad derived from the query aggregates and g, so float rounding can
// never exclude an admissible candidate. A bound at or beyond inf
// yields the unbounded envelope.
func (sc *searchCtx) envelope(bound float64) sigindex.ProbeQuery {
	q := sigindex.ProbeQuery{Sig: sc.sig}
	wa, wf := sc.wa, sc.wf
	if bound >= inf || sc.vwMin <= 0 {
		q.AmpLo, q.AmpHi = math.Inf(-1), math.Inf(1)
		q.DurLo, q.DurHi = math.Inf(-1), math.Inf(1)
		return q
	}
	g := bound * sc.params.maxStreamWeight() * sc.wsum / sc.vwMin
	pad := boundSlack * (2*(wa*sc.ampQ+wf*sc.durQ) + 4*g)
	ra := (g + pad) / wa
	rd := (g + pad) / wf
	q.AmpLo, q.AmpHi = sc.ampQ-ra, sc.ampQ+ra
	q.DurLo, q.DurHi = sc.durQ-rd, sc.durQ+rd
	return q
}

// indexWork is one stream's share of a probe round: either a probed
// start list or a full scan for streams the index cannot answer for.
type indexWork struct {
	st     *store.Stream
	ord    int
	starts []int32
	probed bool
}

// searchIndexed is the index-backed replacement for the stream scan
// loop of search(). It consults the index's per-stream coverage once —
// streams that are unknown, stale (appended to without the hook), or
// poisoned fall back to a full scan every round — then runs probe
// rounds until a termination condition proves the result set complete.
// Each top-k round restarts with a fresh collector and funnel so only
// the final, complete round determines both the results and the
// metrics.
func (m *Matcher) searchIndexed(sc *searchCtx, active []*workerState, streams []*store.Stream, k int) error {
	cov := m.Index.Coverage()
	sc.probe.used = true

	var probed, fallback []indexWork
	for ord, st := range streams {
		c, ok := cov[sigindex.StreamKey{PatientID: st.PatientID, SessionID: st.SessionID}]
		if !ok || c.Poisoned || c.Vertices != st.Len() {
			fallback = append(fallback, indexWork{st: st, ord: ord})
			continue
		}
		probed = append(probed, indexWork{st: st, ord: ord, probed: true})
	}
	sc.probe.fallbackStreams = len(fallback)

	bound := sc.threshold
	if k > 0 {
		seed := m.Params.DistThreshold
		if sc.threshold < seed {
			seed = sc.threshold
		}
		bound = seed / topKSeedDiv
	}
	for round := 0; ; round++ {
		if k > 0 {
			// Restart the round from scratch: the collector bound must
			// re-tighten from the threshold over the wider candidate
			// set, and only the final round's funnel counts describe
			// the search that produced the output.
			sc.col = newCollector(k, sc.threshold)
			for _, w := range active {
				w.funnel = funnelCounts{}
				w.stage = stageNS{}
				w.matches = w.matches[:0]
			}
		}

		pq := sc.envelope(bound)
		pq.Widened = round > 0
		var t0 time.Time
		if sc.timed {
			t0 = time.Now()
		}
		pr := m.Index.Probe(pq)
		if sc.timed {
			sc.probe.dur += time.Since(t0)
		}
		sc.probe.probes++
		if pq.Widened {
			sc.probe.widenings++
		}
		sc.probe.rounds++
		sc.probe.candidates += pr.Candidates
		sc.probe.cells += pr.Cells

		work := make([]indexWork, 0, len(fallback)+len(probed))
		work = append(work, fallback...)
		for _, it := range probed {
			it.starts = pr.Starts[sigindex.StreamKey{PatientID: it.st.PatientID, SessionID: it.st.SessionID}]
			if len(it.starts) == 0 {
				// The probe proves this stream offers nothing inside
				// the envelope: every window it could offer is pruned
				// without touching the stream at all.
				if possible := it.st.Len() - sc.n + 1; possible > 0 {
					active[0].funnel.indexPruned += possible
				}
				continue
			}
			work = append(work, it)
		}

		do := func(w *workerState, i int) error {
			if it := work[i]; it.probed {
				return sc.scanProbed(w, it.st, it.ord, it.starts)
			} else {
				return sc.scanStream(w, it.st, it.ord)
			}
		}
		if len(active) == 1 || len(work) <= 1 {
			for i := range work {
				if err := do(active[0], i); err != nil {
					return err
				}
			}
		} else if err := runParallel(active, len(work), do); err != nil {
			return err
		}

		if k == 0 || pr.Exhaustive || bound >= sc.threshold {
			return nil
		}
		if full, kd := sc.col.kth(); full && kd <= bound {
			return nil
		}
		bound *= topKWidenFactor
		if bound > sc.threshold {
			bound = sc.threshold
		}
	}
}
