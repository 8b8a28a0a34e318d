package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/server"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// meta is what a result records about the run itself.
type meta struct {
	Workload         string         `json:"workload"`
	Seed             int64          `json:"seed"`
	Seconds          int            `json:"seconds"`
	Nproc            int            `json:"nproc"`
	Clients          int            `json:"clients"`
	GOMAXPROCS       map[string]int `json:"gomaxprocs"`
	GoVersion        string         `json:"goVersion"`
	Revision         string         `json:"revision"`
	InputFingerprint float64        `json:"inputFingerprint"`
	QueryRepeatShare float64        `json:"queryRepeatShare"`
	WriteShare       float64        `json:"writeShare"`
	SetupRuns        []float64      `json:"setupSeconds"`
	PhaseSeconds     float64        `json:"phaseSeconds"`
	// StealMS is the CPU time a hypervisor gave to other guests during
	// the phase (the steal column of /proc/stat): contention from
	// outside the benchmark.
	StealMS float64 `json:"phaseStealMs"`
}

// opCount tallies one op type in one part of the run.
type opCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// record is the full result of one run.
type record struct {
	Meta      meta                          `json:"meta"`
	Correct   bool                          `json:"correct"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Ops       map[string]map[string]opCount `json:"ops"` // part -> op type
	// Samples gives the sample count behind every percentile printed.
	Samples       map[string]int     `json:"samples"`
	Percentiles   map[string]float64 `json:"tailPercentile"`
	EndToEnd      map[string]metric  `json:"endToEnd"`
	PerLayer      map[string]metric  `json:"perLayer,omitempty"`
	Deterministic map[string]float64 `json:"deterministic"`
	Failures      []string           `json:"failures,omitempty"`
}

func (rec *record) fail(format string, args ...any) {
	rec.Failed++
	if len(rec.Failures) < 20 {
		rec.Failures = append(rec.Failures, fmt.Sprintf(format, args...))
	}
}

// current is the SUT a signal handler must stop.
var current struct {
	sync.Mutex
	s *sut
}

func setCurrent(s *sut) {
	current.Lock()
	current.s = s
	current.Unlock()
}

func init() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		current.Lock()
		if current.s != nil {
			current.s.kill()
		}
		os.Exit(130)
	}()
}

// setupRuns is how many times a trace-0 run boots and loads the SUT;
// set-up time is the median, and the last boot serves the phase.
const setupRuns = 3

// runOnce boots the SUT, runs the workload, checks every answer and
// computes the metrics.
func runOnce(cfg config) (*record, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	clients := nproc
	in, err := generate(cfg.workload, cfg.seed, cfg.seconds, clients)
	if err != nil {
		return nil, err
	}
	phaseBodies, err := in.bodies(in.phase)
	if err != nil {
		return nil, err
	}
	probeBodies, err := in.bodies(in.probe)
	if err != nil {
		return nil, err
	}
	hotOps := make([]op, in.sp.hotQueries)
	for i := range hotOps {
		hotOps[i] = op{kind: opMatch, q: i, maxLag: in.sp.hotMaxLag}
	}
	hotBodies, err := in.bodies(hotOps)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Meta: meta{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Nproc: nproc, Clients: clients,
			GOMAXPROCS: map[string]int{"generator": runtime.GOMAXPROCS(0)},
			GoVersion:  runtime.Version(), Revision: cfg.rev, InputFingerprint: in.fingerprint(),
		},
		Ops:           map[string]map[string]opCount{},
		Samples:       map[string]int{},
		Percentiles:   map[string]float64{},
		EndToEnd:      map[string]metric{},
		Deterministic: map[string]float64{},
	}
	rec.Meta.QueryRepeatShare, rec.Meta.WriteShare = shares(in.phase)

	hc := newClient(clients)
	defer hc.CloseIdleConnections()
	// Health probes and /metrics scrapes go on one-shot connections, so
	// the load's nproc connections are the only ones held open.
	ctl := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	base := "http://" + gatewayAddr
	runDir := filepath.Join(cfg.workDir, "run")
	reps := setupRuns
	if cfg.trace {
		reps = 1 // per-layer figures do not include set-up time
	}
	var s *sut
	for r := 0; r < reps; r++ {
		start := time.Now()
		if s, err = startSUT(ctl, cfg.binDir, runDir, nproc); err != nil {
			return nil, err
		}
		setCurrent(s)
		if err = in.load(hc, base, clients); err != nil {
			s.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.Meta.SetupRuns = append(rec.Meta.SetupRuns, time.Since(start).Seconds())
		if r < reps-1 {
			s.kill()
			hc.CloseIdleConnections()
		}
	}
	for _, p := range s.procs() {
		rec.Meta.GOMAXPROCS[p.name] = nproc
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()

	snap := func() (Scrape, Scrape, map[string]float64, float64, error) {
		gw, sh, err := s.scrape(ctl)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		cpu, err := s.cpu()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		gen, err := cpuMS(os.Getpid())
		return gw, sh, cpu, gen, err
	}
	runtime.GC()
	steal0 := stealMS()
	gw0, sh0, cpu0, gen0, err := snap()
	if err != nil {
		return nil, err
	}
	phaseOut, phaseWall := in.runOps(hc, base, in.phase, phaseBodies, in.phaseTicks, clients)
	gw1, sh1, cpu1, gen1, err := snap()
	if err != nil {
		return nil, err
	}
	rec.Meta.StealMS = stealMS() - steal0
	probeOut, _ := in.runOps(hc, base, in.probe, probeBodies, in.probeTicks, clients)
	gw2, sh2, _, _, err := snap()
	if err != nil {
		return nil, err
	}
	var hotOut []outcome
	for i, o := range hotOps {
		hotOut = append(hotOut, in.do(hc, base, o, hotBodies[i]))
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	s.stop()
	stopped = true
	setCurrent(nil)
	rec.Meta.PhaseSeconds = phaseWall.Seconds()
	if err := writeOps(filepath.Join(cfg.workDir, "results", fmt.Sprintf("%s-seed%d-ops.csv", cfg.workload, cfg.seed)), in.phase, phaseOut); err != nil {
		return nil, err
	}

	// Oracles: the untraced replay gives every expected answer.
	walDir := filepath.Join(cfg.workDir, "replay")
	var hits []bool
	if in.sp.hotQueries > 0 {
		hits = make([]bool, len(phaseOut))
		for j, o := range phaseOut {
			hits[j] = o.cacheHit
		}
	}
	rp, replayWall, final, err := replayOnce(in, nil, cfg.trace, hits, walDir)
	if err != nil {
		rec.fail("replay: %v", err)
	} else {
		rec.check("phase", in, in.phase, phaseOut, rp.predPhase, rp.matchPhase)
		rec.check("probe", in, in.probe, probeOut, rp.predProbe, rp.matchProbe)
		rec.check("recheck", in, hotOps, hotOut, nil, final)
	}

	w := windows{phase: in.phase, probe: in.probe, phaseOut: phaseOut, probeOut: probeOut}
	rec.endToEnd(in, w, setupMedian(rec.Meta.SetupRuns), phaseWall, cpu0, cpu1, rss)
	counts := countsFor(w, Delta(gw0, gw1), Delta(sh0, sh1), Delta(gw1, gw2), Delta(sh1, sh2), sh2)
	counts["gen.cpu_ms_per_op"] = metric{(gen1 - gen0) / float64(len(in.phase)), "ms"}
	counts["shard.cpu_ms_per_op"] = metric{(cpu1["gateway"] - cpu0["gateway"]) / float64(len(in.phase)), "ms"}
	var shardCPU float64
	for _, p := range s.shards {
		shardCPU += cpu1[p.name] - cpu0[p.name]
	}
	counts["server.cpu_ms_per_op"] = metric{shardCPU / float64(len(in.phase)), "ms"}
	fsyncs := Delta(sh0, sh1).Sum("stsmatch_wal_fsyncs_total", nil)
	counts["wal.fsyncs_per_s"] = metric{fsyncs / phaseWall.Seconds(), "1/s"}
	// Figures the seed fixes. The funnel counts qualify only where no
	// cache hit (a matter of timing) decides which searches run.
	rec.Deterministic["wal.records_per_ingest"] = counts["wal.records_per_ingest"].Value
	if in.sp.hotQueries == 0 {
		for _, k := range []string{"core.candidates_per_search", "core.lb_pruned_per_search",
			"core.distance_rejected_per_search", "core.matched_per_search"} {
			rec.Deterministic[k] = counts[k].Value
		}
	}
	for _, k := range []string{"predict_err_mm", "predict_coverage"} {
		rec.Deterministic[k] = rec.EndToEnd[k].Value
	}

	if cfg.trace {
		rec.PerLayer = counts
		rec.tail(w)
		if rp == nil {
			return nil, errors.New("no oracle replay to trace")
		}
		if err := rec.traced(in, walDir, cfg, rp, replayWall, phaseBodies, probeBodies); err != nil {
			rec.fail("traced replay: %v", err)
		}
	}
	rec.Attempted = len(in.phase) + len(in.probe) + len(hotOps)
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// replayOnce runs the in-process replay and times its operations.
func replayOnce(in *inputs, tr *tracer, full bool, hits []bool, walDir string) (*replay, time.Duration, [][]server.RemoteMatch, error) {
	rp, err := newReplay(in, tr, full, hits, walDir)
	if err != nil {
		return nil, 0, nil, err
	}
	defer rp.close()
	if err := rp.setup(); err != nil {
		return nil, 0, nil, err
	}
	rp.events = 0
	start := time.Now()
	final, err := rp.run()
	return rp, time.Since(start), final, err
}

// shares returns the phase's query-repeat share (matches whose query
// an earlier match already sent) and write share (ingests over ops).
func shares(ops []op) (repeat, write float64) {
	seen := map[int]bool{}
	var matches, repeats, writes int
	for _, o := range ops {
		switch o.kind {
		case opMatch:
			matches++
			if seen[o.q] {
				repeats++
			}
			seen[o.q] = true
		case opIngest:
			writes++
		}
	}
	return ratio(float64(repeats), float64(matches)), ratio(float64(writes), float64(len(ops)))
}

func setupMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// check counts each outcome as succeeded or failed: a transport or
// status failure, a degraded answer, or any difference from the oracle.
func (rec *record) check(part string, in *inputs, ops []op, outs []outcome, preds []prediction, matches [][]server.RemoteMatch) {
	if rec.Ops[part] == nil {
		rec.Ops[part] = map[string]opCount{}
	}
	for j, o := range ops {
		oc := rec.Ops[part][o.kind.String()]
		oc.Attempted++
		bad := outs[j].err
		if bad == "" && o.kind == opPredict && preds != nil {
			if !samePrediction(prediction{covered: outs[j].covered, pos: outs[j].pos}, preds[j]) {
				bad = fmt.Sprintf("prediction %v/%v, replay has %v/%v", outs[j].covered, outs[j].pos, preds[j].covered, preds[j].pos)
			}
		}
		// Retrieval answers are exact wherever no write can interleave:
		// every match outside hot-read's phase.
		if bad == "" && o.kind == opMatch && !(part == "phase" && in.workload == "hot-read") {
			if d := diffMatches(outs[j].matches, matches[j]); d != "" {
				bad = "retrieval differs from the single-node oracle: " + d
			}
		}
		if bad != "" {
			oc.Failed++
			rec.fail("%s %s op %d: %s", part, o.kind, j, bad)
		} else {
			oc.Succeeded++
		}
		rec.Ops[part][o.kind.String()] = oc
	}
}

// windows holds the phase and probe with their outcomes. An op type's
// latency and counts come from the phase when the phase has it, else
// from the probe that follows the phase.
type windows struct {
	phase, probe       []op
	phaseOut, probeOut []outcome
}

func (w windows) inPhase(k opKind) bool {
	for _, o := range w.phase {
		if o.kind == k {
			return true
		}
	}
	return false
}

// of returns the ops and outcomes of kind k from its window.
func (w windows) of(k opKind) ([]op, []outcome) {
	ops, outs := w.probe, w.probeOut
	if w.inPhase(k) {
		ops, outs = w.phase, w.phaseOut
	}
	var ro []op
	var rout []outcome
	for j, o := range ops {
		if o.kind == k {
			ro = append(ro, o)
			rout = append(rout, outs[j])
		}
	}
	return ro, rout
}

func (rec *record) endToEnd(in *inputs, w windows, setup float64, wall time.Duration, cpu0, cpu1 map[string]float64, rss float64) {
	e := rec.EndToEnd
	e["setup_s"] = metric{setup, "s"}
	e["ops_per_s"] = metric{float64(len(in.phase)) / wall.Seconds(), "1/s"}
	var cpu float64
	for name, v := range cpu1 {
		cpu += v - cpu0[name]
	}
	e["sut_cpu_ms_per_op"] = metric{cpu / float64(len(in.phase)), "ms"}
	e["sut_peak_rss_mb"] = metric{rss, "MB"}
	for k := opKind(0); k < numKinds; k++ {
		_, outs := w.of(k)
		lat := make([]float64, len(outs))
		for i, o := range outs {
			lat[i] = o.latMS
		}
		p50, err := Median(lat)
		if err != nil {
			rec.fail("%s latency: %v", k, err)
		}
		e[k.String()+"_p50_ms"] = metric{p50, "ms"}
		rec.Samples[k.String()+"_p50_ms"] = len(lat)
	}
	ops, outs := w.of(opPredict)
	var errs []float64
	for j, o := range outs {
		if !o.covered {
			continue
		}
		s := in.gating[ops[j].sess]
		truth := s.truthAt(s.samples[ops[j].to-1].T + predictDelta)
		var d2 float64
		for k := range truth {
			d := o.pos[k] - truth[k]
			d2 += d * d
		}
		errs = append(errs, math.Sqrt(d2))
	}
	// The median, not the mean: a few irregular-breathing episodes
	// (coughs, baseline shifts) in a seed's motion otherwise swing the
	// figure by 15% between seeds.
	perr, err := Median(errs)
	if err != nil {
		rec.fail("prediction error: %v", err)
	}
	e["predict_err_mm"] = metric{perr, "mm"}
	e["predict_coverage"] = metric{ratio(float64(len(errs)), float64(len(outs))), "ratio"}
	rec.Samples["predict_err_mm"] = len(errs)
}

// tail adds each op type's highest percentile up to p99 that has at
// least minTail samples beyond it, with its sample count.
func (rec *record) tail(w windows) {
	for k := opKind(0); k < numKinds; k++ {
		_, outs := w.of(k)
		lat := make([]float64, len(outs))
		for i, o := range outs {
			lat[i] = o.latMS
		}
		name := "tail." + k.String() + "_p99_ms"
		for _, p := range []float64{99, 98, 95, 90, 75, 50} {
			if v, err := Percentile(lat, p); err == nil {
				rec.PerLayer[name] = metric{v, "ms"}
				rec.Percentiles[name] = p
				break
			}
		}
		rec.PerLayer["tail."+k.String()+"_samples"] = metric{float64(len(lat)), "count"}
		rec.Samples[name] = len(lat)
	}
}

// countsFor derives the per-layer counts from /metrics deltas: phase
// deltas for op types the phase has, probe deltas otherwise.
func countsFor(w windows, gwPhase, shPhase, gwProbe, shProbe, shEnd Scrape) map[string]metric {
	pick := func(k opKind) (gw, sh Scrape, n float64) {
		ops, _ := w.of(k)
		if w.inPhase(k) {
			return gwPhase, shPhase, float64(len(ops))
		}
		return gwProbe, shProbe, float64(len(ops))
	}
	m := map[string]metric{}
	gwM, shM, nMatch := pick(opMatch)
	_, outs := w.of(opMatch)
	var planned, follower float64
	for _, o := range outs {
		planned += float64(o.planned)
		follower += float64(o.follower)
	}
	hits := gwM.Sum("stsmatch_gateway_match_cache_hits_total", nil)
	misses := gwM.Sum("stsmatch_gateway_match_cache_misses_total", nil)
	scatter, _ := gwM.HistQuantile("stsmatch_gateway_scatter_seconds", nil, 0.5)
	m["shard.legs_per_match"] = metric{ratio(shM.Sum("stsmatch_http_requests_total", map[string]string{"route": "match"}), nMatch), "count"}
	m["shard.retry_legs_per_match"] = metric{ratio(gwM.Sum("stsmatch_gateway_match_retry_legs_total", nil), nMatch), "count"}
	m["shard.scatter_ms_p50"] = metric{scatter * 1e3, "ms"}
	m["shard.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["shard.follower_read_ratio"] = metric{ratio(follower, planned), "ratio"}

	_, shI, nIngest := pick(opIngest)
	m["server.lock_wait_us_per_ingest"] = metric{ratio(shI.Sum("stsmatch_server_lock_wait_seconds_sum", nil)*1e6, nIngest), "us"}
	m["fsm.vertices_per_sample"] = metric{ratio(shI.Sum("stsmatch_fsm_vertices_total", nil), shI.Sum("stsmatch_fsm_samples_total", nil)), "ratio"}
	m["wal.records_per_ingest"] = metric{ratio(shI.Sum("stsmatch_wal_records_total", nil), nIngest), "count"}
	m["wal.bytes_per_ingest"] = metric{ratio(shI.Sum("stsmatch_wal_bytes_total", nil), nIngest), "B"}
	gc, _ := shI.HistQuantile("stsmatch_wal_group_commit_seconds", nil, 0.5)
	m["wal.group_commit_ms_p50"] = metric{gc * 1e3, "ms"}
	m["repl.records_per_ingest"] = metric{ratio(shI.Sum("stsmatch_repl_shipped_records_total", nil), nIngest), "count"}
	m["repl.ship_errors"] = metric{shPhase.Sum("stsmatch_repl_ship_errors_total", nil) + shProbe.Sum("stsmatch_repl_ship_errors_total", nil), "count"}
	m["subscribe.evals_per_ingest"] = metric{ratio(shI.Sum("stsmatch_sub_eval_total", nil), nIngest), "count"}

	_, shP, _ := pick(opPredict)
	busy, _ := shP.HistQuantile("stsmatch_server_predict_seconds", nil, 0.5)
	m["server.predict_busy_ms_p50"] = metric{busy * 1e3, "ms"}

	searches := shPhase.Sum("stsmatch_matcher_searches_total", nil)
	m["core.searches_per_op"] = metric{ratio(searches, float64(len(w.phase))), "count"}
	for name, series := range map[string]string{
		"core.candidates_per_search":        "stsmatch_matcher_candidates_scanned_total",
		"core.lb_pruned_per_search":         "stsmatch_matcher_lb_pruned_total",
		"core.distance_rejected_per_search": "stsmatch_matcher_distance_rejected_total",
		"core.matched_per_search":           "stsmatch_matcher_matches_total",
	} {
		m[name] = metric{ratio(shPhase.Sum(series, nil), searches), "count"}
	}
	search, _ := shPhase.HistQuantile("stsmatch_matcher_search_seconds", nil, 0.5)
	m["core.search_ms_p50"] = metric{search * 1e3, "ms"}
	m["store.vertices"] = metric{shEnd.Sum("stsmatch_store_vertices", nil), "count"}
	return m
}

// traced runs the traced replays and adds their per-layer figures.
func (rec *record) traced(in *inputs, walDir string, cfg config, oracle *replay, untracedWall time.Duration,
	phaseBodies, probeBodies [][]byte) error {
	tr := newTracer()
	rp, wall, _, err := replayOnce(in, tr, true, oracle.hits, walDir)
	if err != nil {
		return err
	}
	nOps := float64(len(in.phase) + len(in.probe))
	rec.PerLayer["trace.overhead"] = metric{(nOps / wall.Seconds()) / (nOps / untracedWall.Seconds()), "ratio"}
	for j := range rp.predPhase {
		if !samePrediction(rp.predPhase[j], oracle.predPhase[j]) {
			return fmt.Errorf("traced replay changed prediction %d", j)
		}
	}
	// The in-process servers log like streamd; keep their chatter off
	// the benchmark's output.
	obs.InitLogging(io.Discard, slog.LevelError, false)
	srt := newTracer()
	sr, err := newServerReplay(in, rp, srt, walDir)
	if err != nil {
		return err
	}
	defer sr.close()
	if err := sr.setup(); err != nil {
		return err
	}
	if err := sr.run(in.phase, phaseBodies, rp.predPhase, rp.hits); err != nil {
		return err
	}
	if err := sr.run(in.probe, probeBodies, rp.predProbe, nil); err != nil {
		return err
	}
	if sr.mismatches > 0 {
		rec.fail("in-process servers disagreed with the replay on %d predictions", sr.mismatches)
	}
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "traces"), 0o755); err != nil {
		return err
	}
	for name, t := range map[string]*tracer{"layers": tr, "server": srt} {
		p := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, name))
		if err := t.write(p); err != nil {
			return err
		}
	}
	direct, served := tr.ops(), srt.ops()
	if len(direct) != len(served) {
		return fmt.Errorf("replays disagree on op count: %d vs %d", len(direct), len(served))
	}
	pl := rec.PerLayer
	layerNames := map[string]string{
		"codec.samples_decode":             "codec.samples_decode",
		"fsm.Segmenter.Push":               "fsm.push",
		"store.Stream.Append":              "store.append",
		"wal.Log.Append":                   "wal.append",
		"wal.EncodeBatch":                  "repl.encode",
		"wal.DecodeBatch":                  "repl.decode",
		"subscribe.Manager.Drain":          "subscribe.drain",
		"core.Params.DynamicQuery":         "core.dynamic_query",
		"core.Matcher.FindSimilar":         "core.find_similar",
		"core.Matcher.PredictDisplacement": "core.predict_displacement",
		"core.Matcher.TopK":                "core.topk",
		"codec.match_req_decode":           "codec.match_req_decode",
		"codec.match_resp_encode":          "codec.match_resp_encode",
		"codec.match_resp_decode":          "codec.match_resp_decode",
		"shard.MergeMatches":               "shard.merge",
	}
	for k := opKind(0); k < numKinds; k++ {
		root := "op." + k.String()
		us, allocs, _ := layerCosts(direct, root)
		_, sallocs, sbytes := layerCosts(served, root)
		for span, v := range us {
			name := layerNames[span]
			pl[name+"_us"] = metric{v, "us"}
			pl[name+"_allocs"] = metric{allocs[span], "count"}
		}
		// Pair each op's ServeHTTP time with the direct layer calls of
		// the same op. A retrieval's shard-side work is its legs; its
		// other calls run in the gateway, outside ServeHTTP. So the op's
		// attributed time is its ServeHTTP time plus those gateway calls,
		// and the server's overhead is ServeHTTP minus the calls inside.
		var over, attributed []float64
		for j := range direct {
			if direct[j].root != root || direct[j].sampled {
				continue
			}
			var layers float64
			for _, v := range direct[j].us {
				layers += v
			}
			inside := layers
			if k == opMatch {
				inside = direct[j].legUS
			}
			serve, ok := served[j].us["server.Server.ServeHTTP"]
			if ok {
				over = append(over, serve-inside)
			}
			attributed = append(attributed, serve+layers-inside)
		}
		ov, err := Median(over)
		if err != nil {
			return fmt.Errorf("%s server overhead: %w", k, err)
		}
		at, err := Median(attributed)
		if err != nil {
			return fmt.Errorf("%s attributed time: %w", k, err)
		}
		pl["server.overhead_us."+k.String()] = metric{ov, "us"}
		pl["server.allocs_per_"+k.String()] = metric{sallocs["server.Server.ServeHTTP"], "count"}
		pl["server.bytes_per_"+k.String()] = metric{sbytes["server.Server.ServeHTTP"], "B"}
		// The client-observed median splits into the median op's time in
		// the layers (server and shard calls, gateway codec and merge)
		// and a residual: network, HTTP client, gateway routing, cache
		// and queueing behind other requests.
		client := rec.EndToEnd[k.String()+"_p50_ms"].Value * 1e3
		pl["trace.attributed_us."+k.String()] = metric{at, "us"}
		pl["trace.residual_us."+k.String()] = metric{client - at, "us"}
	}
	// Per-unit figures replace the per-op ones: an ingest pushes
	// tickSamples samples and appends a vertex only every ~40 samples.
	pl["fsm.push_us_per_sample"] = metric{pl["fsm.push_us"].Value / tickSamples, "us"}
	var appendUS float64
	for _, o := range direct {
		if o.root == "op.ingest" && !o.sampled {
			appendUS += o.us["store.Stream.Append"]
		}
	}
	pl["store.append_us_per_vertex"] = metric{ratio(appendUS, float64(rp.appendedVertices)), "us"}
	delete(pl, "fsm.push_us")
	delete(pl, "store.append_us")
	pl["subscribe.events_per_ingest"] = metric{ratio(float64(rp.events), float64(rp.seen[opIngest])), "count"}
	return nil
}

// writeOps stores each phase op's kind, start and latency as CSV.
func writeOps(path string, ops []op, outs []outcome) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("kind,start_ms,latency_ms,cache_hit\n")
	for j, o := range ops {
		fmt.Fprintf(&b, "%s,%.3f,%.4f,%t\n", o.kind, outs[j].startMS, outs[j].latMS, outs[j].cacheHit)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
