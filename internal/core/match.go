package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/sigindex"
	"stsmatch/internal/store"
)

// Query is a query subsequence together with its provenance, which
// determines the source-stream weight of every candidate and which
// windows must be excluded as "the query itself".
type Query struct {
	Seq plr.Sequence
	// PatientID and SessionID identify the stream the query was taken
	// from. They may be empty for ad-hoc queries, in which case every
	// candidate is treated as other-patient.
	PatientID string
	SessionID string
	// Now is the current time of the online application — normally
	// the time of the query's last vertex. Candidates from the query's
	// own stream are only admitted if they end strictly before the
	// query begins (their "future" must already be history).
	Now float64
}

// NewQuery builds a Query from the trailing subsequence of a stream.
func NewQuery(seq plr.Sequence, patientID, sessionID string) Query {
	q := Query{Seq: seq, PatientID: patientID, SessionID: sessionID}
	if len(seq) > 0 {
		q.Now = seq[len(seq)-1].T
	}
	return q
}

// Match is one retrieved similar subsequence.
type Match struct {
	Stream   *store.Stream
	Start    int // index of the window's first vertex
	N        int // window length in vertices
	Relation SourceRelation
	Distance float64
	// Weight is the subsequence weight w'_j used by prediction:
	// the source-stream trust scaled by closeness, w_s / (1 + D).
	Weight float64

	// ord is the candidate stream's position in the search's work
	// list: the final tie-break of the result order, making output
	// deterministic even for byte-identical streams registered under
	// the same patient and session IDs.
	ord int
}

// Window returns the matched subsequence.
func (m Match) Window() plr.Sequence { return m.Stream.Window(m.Start, m.N) }

// EndTime returns the time of the window's final vertex.
func (m Match) EndTime() float64 {
	return m.Stream.Seq()[m.Start+m.N-1].T
}

// matchLess is the total result order: ascending distance, then
// (patient, session, start, stream ordinal). The deterministic suffix
// keys break distance ties — sort.Slice is unstable, so ordering by
// distance alone would make equal-distance results flap between runs
// (and between sequential and parallel scans), breaking the gateway's
// byte-identical exact-merge guarantee. The same key is used by the
// sharding gateway's merge (internal/shard).
func matchLess(a, b Match) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.Stream.PatientID != b.Stream.PatientID {
		return a.Stream.PatientID < b.Stream.PatientID
	}
	if a.Stream.SessionID != b.Stream.SessionID {
		return a.Stream.SessionID < b.Stream.SessionID
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ord < b.ord
}

// Matcher runs similarity search over a stream database.
type Matcher struct {
	DB     *store.DB
	Params Params

	// Index, when non-nil and Params.UseIndex is set, answers
	// candidate generation through window-signature probes instead of
	// per-stream scans (see indexsearch.go). The index must be built
	// over DB and kept current via the store mutation hook; streams it
	// does not fully cover fall back to scanning, so the results stay
	// byte-identical either way.
	Index *sigindex.Index

	// scratch reused across searches (a Matcher is not safe for
	// concurrent use; create one per goroutine). Each search worker
	// goroutine owns one workerState; the slice grows to the effective
	// parallelism and is reused across searches.
	vw      []float64
	streams []*store.Stream
	workers []*workerState
}

// workerState is one search worker's private scratch.
type workerState struct {
	starts  []int   // candidate starts of the current stream, reused across streams
	matches []Match // threshold-mode partial results
	funnel  funnelCounts
	stage   stageNS
	mark    time.Time // last stage-clock reading (traced searches only)
}

// lap charges the time since the worker's last clock mark to *stage
// and moves the mark forward. The funnel calls it once per stage per
// stream, never per candidate.
func (w *workerState) lap(stage *int64) {
	now := time.Now()
	*stage += int64(now.Sub(w.mark))
	w.mark = now
}

// stageNS accumulates per-funnel-stage wall time (nanoseconds),
// worker-locally. Only populated when the search is traced
// (searchCtx.timed). Each stage is clocked once per stream pass, so
// the candidate loops themselves never read the clock.
type stageNS struct {
	stateOrder int64 // candidate start generation (AppendWindows)
	lb         int64 // pass 1: self-exclusion + O(1) lower bound
	dist       int64 // pass 2: live-bound recheck + bounded exact distance
}

func (s *stageNS) add(o stageNS) {
	s.stateOrder += o.stateOrder
	s.lb += o.lb
	s.dist += o.dist
}

// funnelCounts accumulates the pruning-funnel metrics worker-locally,
// so the hot loop does not contend on the shared atomic counters; the
// totals are flushed to the registry once per search.
type funnelCounts struct {
	candidates   int
	indexPruned  int
	selfExcluded int
	lbPruned     int
	distRejected int
}

func (f *funnelCounts) add(o funnelCounts) {
	f.candidates += o.candidates
	f.indexPruned += o.indexPruned
	f.selfExcluded += o.selfExcluded
	f.lbPruned += o.lbPruned
	f.distRejected += o.distRejected
}

// NewMatcher builds a matcher; it returns an error for invalid
// parameters.
func NewMatcher(db *store.DB, p Params) (*Matcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	return &Matcher{DB: db, Params: p}, nil
}

// relationOf classifies a candidate stream relative to the query.
func relationOf(q Query, st *store.Stream) SourceRelation {
	switch {
	case q.PatientID == st.PatientID && q.SessionID == st.SessionID:
		return SameSession
	case q.PatientID == st.PatientID:
		return SamePatient
	default:
		return OtherPatient
	}
}

// FindSimilar retrieves every stored subsequence similar to the query
// under Definition 2: same state order, weighted distance within the
// threshold. Results are sorted by ascending distance (ties broken by
// patient, session, start).
//
// restrict, when non-nil, limits the search to streams of the listed
// patients (the cluster-restricted search of Section 5.3); keys are
// patient IDs.
func (m *Matcher) FindSimilar(q Query, restrict map[string]bool) ([]Match, error) {
	return m.search(context.Background(), q, restrict, 0, m.Params.DistThreshold)
}

// FindSimilarCtx is FindSimilar with a context: when the context
// carries a trace span (obs.StartSpan), the search emits a
// "matcher.search" child span plus per-funnel-stage spans carrying
// stage wall time and candidate counts. Untraced contexts behave
// exactly like FindSimilar.
func (m *Matcher) FindSimilarCtx(ctx context.Context, q Query, restrict map[string]bool) ([]Match, error) {
	return m.search(ctx, q, restrict, 0, m.Params.DistThreshold)
}

// TopK retrieves the k nearest stored subsequences with the query's
// state order, regardless of the distance threshold. It is the
// building block of the offline stream distance (Definition 3).
//
// The threshold is ignored by plumbing an infinite bound through the
// search rather than by mutating m.Params, so an error or panic
// mid-search can never leak an infinite threshold into later calls.
func (m *Matcher) TopK(q Query, k int, restrict map[string]bool) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: TopK needs k > 0, got %d", k)
	}
	return m.search(context.Background(), q, restrict, k, inf)
}

// TopKCtx is TopK with trace-context support (see FindSimilarCtx).
func (m *Matcher) TopKCtx(ctx context.Context, q Query, k int, restrict map[string]bool) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: TopK needs k > 0, got %d", k)
	}
	return m.search(ctx, q, restrict, k, inf)
}

// FindSimilarTopK retrieves the k nearest matches within the distance
// threshold: FindSimilar's acceptance filter combined with TopK's
// adaptive bound. The search starts from the threshold and tightens
// the bound below it as close matches accumulate, so callers that only
// need the best k within epsilon pay far less distance arithmetic than
// FindSimilar followed by truncation.
func (m *Matcher) FindSimilarTopK(q Query, k int, restrict map[string]bool) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: FindSimilarTopK needs k > 0, got %d", k)
	}
	return m.search(context.Background(), q, restrict, k, m.Params.DistThreshold)
}

// FindSimilarTopKCtx is FindSimilarTopK with trace-context support
// (see FindSimilarCtx).
func (m *Matcher) FindSimilarTopKCtx(ctx context.Context, q Query, k int, restrict map[string]bool) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: FindSimilarTopK needs k > 0, got %d", k)
	}
	return m.search(ctx, q, restrict, k, m.Params.DistThreshold)
}

// searchCtx carries one search's read-only shared state across
// workers: the query, its precomputed aggregates, and the collector.
type searchCtx struct {
	params    *Params
	q         Query
	sig       string
	n         int
	vw        []float64  // per-segment vertex weights (read-only)
	wsum      float64    // Σ vw
	vwMin     float64    // min vw — the lower-bound weight floor
	wa, wf    float64    // resolved amplitude/frequency weights
	ws        [3]float64 // resolved stream weight per SourceRelation
	ampQ      float64    // Σ per-segment displacement norms of the query
	durQ      float64    // query duration
	threshold float64
	col       *collector
	// timed is set when the search runs under a trace span: workers
	// then accumulate per-stage wall time, one clock reading per stage
	// per stream. Untraced searches read no stage clocks at all.
	timed bool
	// probe accumulates index-probe telemetry when the search routes
	// through the signature index (see indexsearch.go).
	probe probeStats
}

// search is the unified retrieval core behind FindSimilar (k == 0),
// TopK (threshold == inf) and FindSimilarTopK. Candidate streams are
// partitioned dynamically across Params.Parallelism workers; every
// candidate runs the funnel
//
//	state-order filter -> self-exclusion -> O(1) lower bound
//	  -> bounded exact distance -> threshold / adaptive top-k
//
// and partial results merge into the matchLess total order, so the
// output is byte-identical at every parallelism setting.
func (m *Matcher) search(ctx context.Context, q Query, restrict map[string]bool, k int, threshold float64) ([]Match, error) {
	if len(q.Seq) < 2 {
		return nil, ErrTooShort
	}
	start := time.Now()
	mSearches.Inc()
	n := len(q.Seq)
	mQueryLen.Observe(float64(n))
	m.vw = m.Params.VertexWeights(m.vw, n)

	// When the caller's context carries a trace, the whole search runs
	// as one child span and the funnel stages report their aggregate
	// wall time (summed across workers, so stage durations can exceed
	// the span's wall-clock duration at parallelism > 1).
	ctx, span := obs.StartSpan(ctx, "matcher.search")
	defer span.Finish()

	sc := &searchCtx{
		params:    &m.Params,
		q:         q,
		sig:       q.Seq.StateSignature(),
		n:         n,
		vw:        m.vw,
		ampQ:      dispNormSum(q.Seq),
		durQ:      q.Seq.Duration(),
		threshold: threshold,
		col:       newCollector(k, threshold),
		timed:     span != nil,
	}
	sc.wsum, sc.vwMin = sumMin(m.vw)
	sc.wa, sc.wf = m.Params.ampFreqWeights()
	for rel := range sc.ws {
		sc.ws[rel] = m.Params.StreamWeight(SourceRelation(rel))
	}

	m.streams = m.DB.AppendStreams(m.streams[:0])
	streams := m.streams
	if restrict != nil {
		kept := streams[:0]
		for _, st := range streams {
			if restrict[st.PatientID] {
				kept = append(kept, st)
			}
		}
		streams = kept
	}

	par := m.Params.parallelism(len(streams))
	for len(m.workers) < par {
		m.workers = append(m.workers, &workerState{})
	}
	active := m.workers[:par]

	// Flush the worker-local funnel counters to the registry and reset
	// the match buffers whatever happens — the workers are reused, so
	// stale state must never survive into the next search, even on an
	// error or panic.
	defer func() {
		var f funnelCounts
		for _, w := range active {
			f.add(w.funnel)
			w.funnel = funnelCounts{}
			w.stage = stageNS{}
			w.matches = w.matches[:0]
		}
		mCandidates.Add(f.candidates)
		mIndexPruned.Add(f.indexPruned)
		mSelfExcluded.Add(f.selfExcluded)
		mLBPruned.Add(f.lbPruned)
		mDistanceRejected.Add(f.distRejected)
	}()

	if m.indexSearchable(n) {
		if err := m.searchIndexed(sc, active, streams, k); err != nil {
			return nil, err
		}
	} else if par == 1 {
		for ord, st := range streams {
			if err := sc.scanStream(active[0], st, ord); err != nil {
				return nil, err
			}
		}
	} else if err := runParallel(active, len(streams), func(w *workerState, i int) error {
		return sc.scanStream(w, streams[i], i)
	}); err != nil {
		return nil, err
	}

	// Merge: threshold mode concatenates the worker-local buffers,
	// top-k mode drains the shared heap. Either way the matchLess
	// total order fully determines the output, so worker scheduling
	// cannot affect it.
	var out []Match
	if k > 0 {
		out = sc.col.heap
	} else {
		total := 0
		for _, w := range active {
			total += len(w.matches)
		}
		out = make([]Match, 0, total)
		for _, w := range active {
			out = append(out, w.matches...)
		}
	}
	mergeStart := time.Now()
	sort.Slice(out, func(a, b int) bool { return matchLess(out[a], out[b]) })
	mergeDur := time.Since(mergeStart)
	mMatched.Add(len(out))
	mSearchSeconds.Observe(time.Since(start).Seconds())

	if span != nil {
		// Read the worker-local funnel counts and stage clocks before
		// the deferred flush resets them; the counts here are exactly
		// what that flush adds to the global funnel metrics.
		var f funnelCounts
		var sg stageNS
		for _, w := range active {
			f.add(w.funnel)
			sg.add(w.stage)
		}
		obs.AddSpan(ctx, "funnel.state_order", start, time.Duration(sg.stateOrder), map[string]any{
			"candidates": f.candidates, "indexPruned": f.indexPruned})
		obs.AddSpan(ctx, "funnel.self_exclusion", start, 0, map[string]any{
			"selfExcluded": f.selfExcluded})
		obs.AddSpan(ctx, "funnel.lb_prune", start, time.Duration(sg.lb), map[string]any{
			"lbPruned": f.lbPruned})
		obs.AddSpan(ctx, "funnel.exact_distance", start, time.Duration(sg.dist), map[string]any{
			"distRejected": f.distRejected})
		obs.AddSpan(ctx, "funnel.topk_merge", mergeStart, mergeDur, map[string]any{
			"matched": len(out)})
		if sc.probe.used {
			obs.AddSpan(ctx, "index.probe", start, sc.probe.dur, map[string]any{
				"probes":          sc.probe.probes,
				"widenings":       sc.probe.widenings,
				"rounds":          sc.probe.rounds,
				"candidates":      sc.probe.candidates,
				"cells":           sc.probe.cells,
				"fallbackStreams": sc.probe.fallbackStreams,
				"windows":         m.Index.Stats().Windows,
			})
			span.Annotate("indexed", true)
		}
		span.Annotate("streams", len(streams))
		span.Annotate("parallelism", par)
		span.Annotate("k", k)
		span.Annotate("queryLen", n)
		span.Annotate("matches", len(out))
		span.Annotate("funnel.candidates", f.candidates)
		span.Annotate("funnel.indexPruned", f.indexPruned)
		span.Annotate("funnel.selfExcluded", f.selfExcluded)
		span.Annotate("funnel.lbPruned", f.lbPruned)
		span.Annotate("funnel.distRejected", f.distRejected)
	}
	return out, nil
}

// runParallel fans n work items across the worker goroutines pulling
// item indices off a shared atomic cursor (dynamic load balancing —
// heavy items do not serialize behind a static partition). The first
// error stops the fan-out; a worker panic is re-raised on the caller's
// goroutine instead of crashing the process.
func runParallel(workers []*workerState, n int, do func(w *workerState, i int) error) error {
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		panicked any
		wg       sync.WaitGroup
	)
	for _, w := range workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					stop.Store(true)
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(w, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

// scanStream runs the candidate funnel over one stream, generating the
// candidate start list by AppendWindows (or, in ablation mode, every
// window of the query's length) into the worker's reused scratch.
func (sc *searchCtx) scanStream(w *workerState, st *store.Stream, ord int) error {
	seq, amps := st.Snapshot()
	if sc.timed {
		w.mark = time.Now()
	}
	possible := len(seq) - sc.n + 1
	if possible < 0 {
		possible = 0
	}
	if sc.params.RequireStateOrder {
		w.starts = st.AppendWindows(w.starts[:0], sc.sig)
		if possible > len(w.starts) {
			w.funnel.indexPruned += possible - len(w.starts)
		}
	} else {
		// Ablation mode: every window of the query's length is a
		// candidate, regardless of its state order.
		if cap(w.starts) < possible {
			w.starts = make([]int, 0, possible)
		}
		w.starts = w.starts[:possible]
		for j := range w.starts {
			w.starts[j] = j
		}
	}
	if sc.timed {
		w.lap(&w.stage.stateOrder)
	}
	return sc.runFunnel(w, st, ord, seq, amps, w.starts)
}

// scanProbed runs the candidate funnel over index-probed start
// positions: the signature index already applied both the state-order
// filter and an envelope version of the lower bound, so the start list
// is typically a small fraction of what FindWindows would return. The
// windows the probe ruled out are charged to indexPruned, exactly as
// the scan path charges non-matching state orders.
func (sc *searchCtx) scanProbed(w *workerState, st *store.Stream, ord int, probed []int32) error {
	seq, amps := st.Snapshot()
	if sc.timed {
		w.mark = time.Now()
	}
	w.starts = w.starts[:0]
	for _, j := range probed {
		w.starts = append(w.starts, int(j))
	}
	if possible := len(seq) - sc.n + 1; possible > len(w.starts) {
		w.funnel.indexPruned += possible - len(w.starts)
	}
	return sc.runFunnel(w, st, ord, seq, amps, w.starts)
}

// runFunnel pushes a candidate start list through the funnel stages —
// self-exclusion, O(1) lower bound, bounded exact distance, threshold
// or adaptive top-k acceptance — accumulating accepted matches into
// the collector and stage counts into the worker's scratch. It is the
// shared back half of the scan and probe paths, which is what keeps
// their results byte-identical.
//
// The funnel makes two passes over the start list so that stage
// timing costs two clock readings per stream instead of four per
// candidate. Pass 1 applies self-exclusion and the lower bound against
// the acceptance bound read at stream entry, compacting the survivors
// in place (starts is the worker's scratch). Pass 2 re-checks each
// survivor's lower bound against the live bound, then runs the exact
// distance. The bound only ever shrinks, so pass 1 prunes nothing the
// live bound would keep, and pass 2 sees, candidate by candidate, the
// bound a single interleaved loop would see; at Parallelism 1 the
// funnel counts are the same as that loop's.
func (sc *searchCtx) runFunnel(w *workerState, st *store.Stream, ord int, seq plr.Sequence, amps []float64, starts []int) error {
	rel := relationOf(sc.q, st)
	n := sc.n
	w.funnel.candidates += len(starts)
	ws := sc.ws[rel]
	useLB := len(amps) == len(seq)
	qStart := sc.q.Seq[0].T
	// lb is the O(1) lower bound of window j from the stream's prefix
	// sums: no per-segment arithmetic touched.
	lb := func(j int) float64 {
		ampC := amps[j+n-1] - amps[j]
		durC := seq[j+n-1].T - seq[j].T
		return lowerBound(sc.wa, sc.wf, ws, sc.ampQ, sc.durQ, ampC, durC, sc.vwMin, sc.wsum)
	}

	// Pass 1: self-exclusion and lower bound against the entry bound.
	entryBound := sc.col.bound()
	kept := starts[:0]
	for _, j := range starts {
		if j+n > len(seq) {
			// A concurrent append grew the stream between the snapshot
			// and the window lookup; windows beyond the snapshot are
			// the next search's business.
			continue
		}
		if rel == SameSession && seq[j+n-1].T >= qStart {
			// Exclude the query itself and any window whose
			// span overlaps the query's present.
			w.funnel.selfExcluded++
			continue
		}
		if useLB && lb(j) > entryBound {
			w.funnel.lbPruned++
			continue
		}
		kept = append(kept, j)
	}
	if sc.timed {
		w.lap(&w.stage.lb)
	}

	// Pass 2: live-bound recheck, bounded exact distance, acceptance.
	for _, j := range kept {
		// The acceptance bound: the distance threshold, tightened to
		// the k-th best distance seen so far in top-k mode. It only
		// ever shrinks, so rejecting against a stale (looser) load is
		// always safe. Pass 1 proved lb(j) <= entryBound, so the lower
		// bound only needs recomputing once the bound has tightened.
		bound := sc.col.bound()
		if useLB && bound < entryBound && lb(j) > bound {
			w.funnel.lbPruned++
			continue
		}
		cand := seq[j : j+n]
		if sc.params.RequireStateOrder && !statesEqual(sc.q.Seq, cand) {
			return ErrStateMismatch
		}
		// Early abandonment: the acceptance bound caps the distance
		// computation on clearly-distant candidates. An infinite bound
		// (top-k mode before the heap fills) means exact distances are
		// needed.
		dbound := bound
		if dbound >= inf {
			dbound = 0
		}
		d, within := weightedDistance(sc.q.Seq, cand, sc.vw, sc.wa, sc.wf, ws, sc.wsum, dbound)
		if (!within && dbound > 0) || d > sc.threshold {
			w.funnel.distRejected++
			continue
		}
		mt := Match{
			Stream:   st,
			Start:    j,
			N:        n,
			Relation: rel,
			Distance: d,
			Weight:   ws / (1 + d),
			ord:      ord,
		}
		if !sc.col.offer(mt, &w.matches) {
			w.funnel.distRejected++
		}
	}
	if sc.timed {
		w.lap(&w.stage.dist)
	}
	return nil
}

// collector accumulates accepted matches. In top-k mode it maintains a
// bounded max-heap (ordered by matchLess) under a mutex and publishes
// the k-th best distance as a monotonically tightening atomic bound
// that workers feed back into the lower-bound filter and the distance
// early-abandonment. In threshold mode matches go to worker-local
// buffers and the bound stays pinned at the threshold.
type collector struct {
	k         int
	threshold float64
	boundBits atomic.Uint64 // float64 bits of the current acceptance bound

	mu   sync.Mutex
	heap []Match // max-heap by matchLess; len <= k
}

func newCollector(k int, threshold float64) *collector {
	c := &collector{k: k, threshold: threshold}
	c.boundBits.Store(math.Float64bits(threshold))
	return c
}

// bound returns the current acceptance bound: no candidate with a
// distance strictly above it can enter the final result set.
func (c *collector) bound() float64 {
	if c.k <= 0 {
		return c.threshold
	}
	return math.Float64frombits(c.boundBits.Load())
}

// kth reports whether the top-k heap is full and, if so, the current
// k-th best distance (the largest retained). The index search uses it
// to decide whether the probe envelope already covers every candidate
// that could still displace a result.
func (c *collector) kth() (full bool, dist float64) {
	if c.k <= 0 {
		return false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) < c.k {
		return false, 0
	}
	return true, c.heap[0].Distance
}

// offer submits an accepted candidate. It reports whether the match
// was retained; in top-k mode a candidate ordering after the current
// k-th best is dropped.
func (c *collector) offer(mt Match, local *[]Match) bool {
	if c.k <= 0 {
		*local = append(*local, mt)
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) < c.k {
		c.heap = append(c.heap, mt)
		siftUp(c.heap, len(c.heap)-1)
		if len(c.heap) == c.k {
			c.publish()
		}
		return true
	}
	if !matchLess(mt, c.heap[0]) {
		return false
	}
	c.heap[0] = mt
	siftDown(c.heap, 0)
	c.publish()
	return true
}

// publish tightens the shared bound to the k-th best distance (never
// looser than the threshold). Called with c.mu held and the heap full;
// the max-heap root carries the largest retained distance, which only
// shrinks as better matches displace it, so the published bound is
// monotone non-increasing — a worker reading a stale value merely
// prunes a little less.
func (c *collector) publish() {
	b := c.heap[0].Distance
	if c.threshold < b {
		b = c.threshold
	}
	c.boundBits.Store(math.Float64bits(b))
}

// siftUp restores the max-heap property (parent not matchLess than
// children) after appending at index i.
func siftUp(h []Match, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !matchLess(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the max-heap property after replacing the root.
func siftDown(h []Match, i int) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && matchLess(h[big], h[l]) {
			big = l
		}
		if r := 2*i + 2; r < len(h) && matchLess(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// dispNormSum returns the sum of per-segment displacement norms
// Σ|Pos[i+1]-Pos[i]| — the query-side aggregate of the O(1) lower
// bound (the stream side comes from store prefix sums).
func dispNormSum(seq plr.Sequence) float64 {
	var s float64
	for i := 0; i+1 < len(seq); i++ {
		var dd float64
		for k := range seq[i].Pos {
			d := seq[i+1].Pos[k] - seq[i].Pos[k]
			dd += d * d
		}
		s += math.Sqrt(dd)
	}
	return s
}

// sumMin returns the sum and minimum of a weight vector.
func sumMin(vw []float64) (sum, min float64) {
	min = math.Inf(1)
	for _, w := range vw {
		sum += w
		if w < min {
			min = w
		}
	}
	if len(vw) == 0 {
		min = 0
	}
	return sum, min
}

// inf is a practically infinite distance threshold.
const inf = 1e308
