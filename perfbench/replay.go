package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/store"
	"stsmatch/internal/subscribe"
	"stsmatch/internal/wal"
)

// The replay applies a run's operations in process, in a fixed order,
// against a mirror of each shard's holdings: every stream is stored on
// the owners shard.Ring.Owners gives for its patient over the same
// backend names the gateway uses. It is the oracle for predictions
// (each computed on the session's primary mirror, as streamd does) and
// maintains a single-node store of every stream for core.Matcher.TopK,
// the oracle for retrieval. With a tracer it also times each call into
// a layer's public function.

// mirror is one shard's holdings.
type mirror struct {
	db   *store.DB
	m    *core.Matcher
	subs *subscribe.Manager
	log  *wal.Log // full replays only: the shard's journal
}

// rsession is a session's replay state.
type rsession struct {
	s       *session
	seg     *fsm.Segmenter
	owners  []int           // mirror indices, primary first
	streams []*store.Stream // the session's stream on each owner
	union   *store.Stream
	n       int // samples ingested
	lastT   float64
	lastPos []float64
	seq     uint64 // replication sequence shipped so far
}

type replay struct {
	in      *inputs
	params  core.Params
	urls    []string
	mirrors []*mirror
	union   *store.DB
	oracle  *core.Matcher
	corpus  []*rsession
	gating  []*rsession
	tr      *tracer
	// full (per-layer runs) journals to each mirror's WAL and runs every
	// shard leg of a retrieval; the plain oracle needs neither.
	full bool
	seen [numKinds]int // ops replayed, per kind
	// hits marks the phase retrievals the SUT's gateway cache answered.
	hits []bool
	// Outputs, by op index within the phase and probe lists.
	predPhase, predProbe   []prediction
	matchPhase, matchProbe [][]server.RemoteMatch
	events                 int // standing-query events emitted
	// appendedVertices counts vertex copies stored by timed ingests.
	appendedVertices int
}

// prediction is the replay's answer to one predict op.
type prediction struct {
	covered bool
	pos     []float64
}

func newReplay(in *inputs, tr *tracer, full bool, hits []bool, walDir string) (*replay, error) {
	params := core.DefaultParams()
	params.Parallelism = 1 // results are identical at any parallelism
	r := &replay{in: in, params: params, urls: shardURLs(), union: store.NewDB(), tr: tr, full: full, hits: hits}
	var err error
	if r.oracle, err = core.NewMatcher(r.union, params); err != nil {
		return nil, err
	}
	for i := range r.urls {
		mr := &mirror{db: store.NewDB(), subs: subscribe.NewManager(params, 0)}
		if mr.m, err = core.NewMatcher(mr.db, params); err != nil {
			return nil, err
		}
		mr.db.AddMutationHook(mr.subs.OnMutation)
		if full {
			dir := filepath.Join(walDir, fmt.Sprintf("mirror%d", i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			if mr.log, _, err = wal.Open(wal.Options{Dir: dir, FsyncInterval: defaultFsync}, nil); err != nil {
				return nil, err
			}
		}
		r.mirrors = append(r.mirrors, mr)
	}
	return r, nil
}

// allocSampleEvery picks one operation of each kind in this many for
// allocation counting; the others feed the timing figures.
const allocSampleEvery = 8

// defaultFsync is streamd's default -fsync group-commit interval.
const defaultFsync = 50 * time.Millisecond

func (r *replay) close() {
	for _, mr := range r.mirrors {
		if mr.log != nil {
			mr.log.Close() //nolint:errcheck // scratch journal
		}
	}
}

// ring places patients exactly as the gateway does.
func (r *replay) ring() *shard.Ring {
	ring := shard.NewRing(shard.DefaultVnodes)
	for _, u := range r.urls {
		ring.Add(u)
	}
	return ring
}

func (r *replay) open(ring *shard.Ring, s *session) (*rsession, error) {
	seg, err := fsm.New(fsm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rs := &rsession{s: s, seg: seg}
	for _, u := range ring.Owners(s.pid, replicas) {
		for i, v := range r.urls {
			if u == v {
				rs.owners = append(rs.owners, i)
			}
		}
	}
	add := func(db *store.DB) (*store.Stream, error) {
		p := db.Patient(s.pid)
		if p == nil {
			if p, err = db.AddPatient(store.PatientInfo{ID: s.pid}); err != nil {
				return nil, err
			}
		}
		st := p.AddStream(s.sid)
		st.EnableIndex()
		return st, nil
	}
	for _, i := range rs.owners {
		st, err := add(r.mirrors[i].db)
		if err != nil {
			return nil, err
		}
		rs.streams = append(rs.streams, st)
	}
	if rs.union, err = add(r.union); err != nil {
		return nil, err
	}
	return rs, nil
}

// setup mirrors the SUT's set-up: history, subscriptions, warm-up.
func (r *replay) setup() error {
	ring := r.ring()
	for _, s := range r.in.corpus {
		rs, err := r.open(ring, s)
		if err != nil {
			return err
		}
		if err := r.ingest(rs, 0, s.warm, false); err != nil {
			return err
		}
		r.corpus = append(r.corpus, rs)
	}
	for i, p := range r.in.subPats {
		rs := r.corpus[p]
		for _, o := range rs.owners {
			st := &wal.SubState{ID: fmt.Sprintf("sub-%d", i), PatientID: rs.s.pid, Pattern: r.in.subSeqs[i]}
			if _, err := r.mirrors[o].subs.Register(st, r.mirrors[o].db); err != nil {
				return err
			}
		}
	}
	for _, s := range r.in.gating {
		rs, err := r.open(ring, s)
		if err != nil {
			return err
		}
		if err := r.ingest(rs, 0, s.warm, false); err != nil {
			return err
		}
		r.gating = append(r.gating, rs)
	}
	return nil
}

// timed reports whether spans now feed the timing figures.
func (r *replay) timed() bool { return r.tr != nil && !r.tr.sampled }

// call times fn as a span named name.
func (r *replay) call(name string, fn func()) {
	id := r.tr.begin(name)
	fn()
	r.tr.end(id)
}

// ingest applies samples [from, to) of a session as one ingest request
// does: the primary segments and stores them, journals and evaluates
// standing queries, then ships one replication batch that the follower
// decodes, stores, journals and evaluates. measured is false for
// set-up, which is neither timed nor decoded from a request body.
func (r *replay) ingest(rs *rsession, from, to int, measured bool) error {
	tr := r.tr
	if !measured {
		r.tr = nil
		defer func() { r.tr = tr }()
	}
	var newVs []plr.Vertex
	if measured {
		// The primary decodes the request body into samples.
		body, _ := json.Marshal(samplesIn(rs.s.samples[from:to]))
		var batch []server.SampleIn
		var err error
		r.call("codec.samples_decode", func() { err = json.Unmarshal(body, &batch) })
		if err != nil {
			return err
		}
	}
	primary := r.mirrors[rs.owners[0]]
	for _, sm := range rs.s.samples[from:to] {
		var vs []plr.Vertex
		var err error
		r.call("fsm.Segmenter.Push", func() { vs, err = rs.seg.Push(sm) })
		if err != nil {
			return fmt.Errorf("%s: %w", rs.s.sid, err)
		}
		if len(vs) > 0 {
			r.call("store.Stream.Append", func() { err = rs.streams[0].Append(vs...) })
			if err != nil {
				return err
			}
			if r.timed() {
				r.appendedVertices += len(vs)
			}
			if err := rs.union.Append(vs...); err != nil {
				return err
			}
			if primary.log != nil {
				rec := wal.Record{Type: wal.TypeVertexAppend, PatientID: rs.s.pid, SessionID: rs.s.sid, Vertices: vs}
				r.call("wal.Log.Append", func() { err = primary.log.Append(rec) })
				if err != nil {
					return err
				}
			}
			newVs = append(newVs, vs...)
		}
		rs.n++
		rs.lastT, rs.lastPos = sm.T, sm.Pos
	}
	r.call("subscribe.Manager.Drain", func() { r.events += primary.subs.Drain(context.Background(), primary.db) })
	anchor := wal.Record{Type: wal.TypeSessionAnchor, PatientID: rs.s.pid, SessionID: rs.s.sid,
		Samples: uint64(rs.n), AnchorT: rs.lastT, AnchorPos: rs.lastPos}
	recs := []wal.Record{anchor}
	if len(newVs) > 0 {
		recs = []wal.Record{{Type: wal.TypeVertexAppend, PatientID: rs.s.pid, SessionID: rs.s.sid, Vertices: newVs}, anchor}
	}
	if primary.log != nil {
		var err error
		r.call("wal.Log.Append", func() { err = primary.log.Append(anchor) })
		if err != nil {
			return err
		}
	}
	for k, o := range rs.owners[1:] {
		f := r.mirrors[o]
		b := wal.Batch{SessionID: rs.s.sid, PatientID: rs.s.pid, Epoch: 1, FirstSeq: rs.seq + 1, Records: recs}
		var data []byte
		r.call("wal.EncodeBatch", func() { data = wal.EncodeBatch(b) })
		var got wal.Batch
		var err error
		r.call("wal.DecodeBatch", func() { got, err = wal.DecodeBatch(data) })
		if err != nil {
			return err
		}
		if len(got.Records) != len(recs) {
			return errors.New("replication batch did not round-trip")
		}
		if len(newVs) > 0 {
			r.call("store.Stream.Append", func() { err = rs.streams[k+1].Append(newVs...) })
			if err != nil {
				return err
			}
			if r.timed() {
				r.appendedVertices += len(newVs)
			}
		}
		if f.log != nil {
			for _, rec := range got.Records {
				r.call("wal.Log.Append", func() { err = f.log.Append(rec) })
				if err != nil {
					return err
				}
			}
		}
		r.call("subscribe.Manager.Drain", func() { r.events += f.subs.Drain(context.Background(), f.db) })
	}
	rs.seq += uint64(len(recs))
	return nil
}

// predict answers GET /predict as streamd does on the primary.
func (r *replay) predict(rs *rsession) (prediction, error) {
	m := r.mirrors[rs.owners[0]].m
	seq := rs.streams[0].Seq()
	if len(seq) < 2 {
		return prediction{}, nil
	}
	var qseq plr.Sequence
	r.call("core.Params.DynamicQuery", func() { qseq, _ = r.params.DynamicQuery(seq) })
	q := core.NewQuery(qseq, rs.s.pid, rs.s.sid)
	var matches []core.Match
	var err error
	r.call("core.Matcher.FindSimilar", func() { matches, err = m.FindSimilar(q, nil) })
	if err != nil {
		return prediction{}, err
	}
	d1 := rs.lastT - q.Now
	d2 := d1 + predictDelta
	var disp []float64
	r.call("core.Matcher.PredictDisplacement", func() { disp, err = m.PredictDisplacement(q, matches, d1, d2, 0) })
	if errors.Is(err, core.ErrNoMatches) {
		return prediction{}, nil
	}
	if err != nil {
		return prediction{}, err
	}
	pos := make([]float64, len(disp))
	for k := range pos {
		pos[k] = rs.lastPos[k] + disp[k]
	}
	return prediction{covered: true, pos: pos}, nil
}

// match answers POST /v1/match. The single-node TopK is the oracle;
// a full replay also runs each shard's leg as the gateway plans it at
// this max-lag (decode, TopK over the leg's scope, encode), decodes the
// legs and merges them with shard.MergeMatches, which must agree.
func (r *replay) match(qs plr.Sequence, maxLag int) ([]server.RemoteMatch, error) {
	q := core.NewQuery(qs, "", "")
	want, err := r.oracle.TopK(q, matchK, nil)
	if err != nil {
		return nil, err
	}
	oracle := remote(want)
	if !r.full {
		return oracle, nil
	}
	req, err := json.Marshal(server.MatchRequest{Seq: qs, K: matchK, MaxLag: maxLag})
	if err != nil {
		return nil, err
	}
	var gwReq server.MatchRequest
	r.call("codec.match_req_decode", func() { err = json.Unmarshal(req, &gwReq) })
	if err != nil {
		return nil, err
	}
	scopes := r.plan(maxLag)
	var lists [][]server.RemoteMatch
	for i, mr := range r.mirrors {
		body, err := r.leg(mr, req, scopes[i])
		if err != nil {
			return nil, err
		}
		var resp server.MatchResponse
		r.call("codec.match_resp_decode", func() { err = json.Unmarshal(body, &resp) })
		if err != nil {
			return nil, err
		}
		lists = append(lists, resp.Matches)
	}
	var merged []server.RemoteMatch
	r.call("shard.MergeMatches", func() { merged = shard.MergeMatches(lists, matchK) })
	r.call("codec.match_resp_encode", func() { _, err = json.Marshal(shard.MatchResult{Matches: merged}) })
	if err != nil {
		return nil, err
	}
	if d := diffMatches(merged, oracle); d != "" {
		return nil, fmt.Errorf("sharded replay disagrees with the single-node oracle: %s", d)
	}
	return oracle, nil
}

// leg is one shard's part of a retrieval: decode the request, search
// the leg's scope, encode the answer. Its calls run inside the shard;
// the gateway decodes and merges the answers.
func (r *replay) leg(mr *mirror, req []byte, scope map[string]bool) ([]byte, error) {
	id := r.tr.begin(legSpan)
	defer r.tr.end(id)
	var legReq server.MatchRequest
	var err error
	r.call("codec.match_req_decode", func() { err = json.Unmarshal(req, &legReq) })
	if err != nil {
		return nil, err
	}
	q := core.NewQuery(legReq.Seq, "", "")
	var ms []core.Match
	r.call("core.Matcher.TopK", func() { ms, err = mr.m.TopK(q, legReq.K, scope) })
	if err != nil {
		return nil, err
	}
	var body []byte
	r.call("codec.match_resp_encode", func() { body, err = json.Marshal(server.MatchResponse{Matches: remote(ms)}) })
	return body, err
}

// plan returns each mirror's patient scope for a retrieval: nil (scan
// everything, the merge deduplicates) at max-lag 0; above it, every
// patient is pinned to one holder, followers first and balanced by
// count, as the gateway's planner does once every follower is fresh.
func (r *replay) plan(maxLag int) []map[string]bool {
	scopes := make([]map[string]bool, len(r.mirrors))
	if maxLag <= 0 {
		return scopes
	}
	for i := range scopes {
		scopes[i] = map[string]bool{}
	}
	owners := map[string][]int{}
	for _, rs := range append(append([]*rsession(nil), r.corpus...), r.gating...) {
		owners[rs.s.pid] = rs.owners
	}
	pids := make([]string, 0, len(owners))
	for pid := range owners {
		pids = append(pids, pid)
	}
	sort.Strings(pids)
	load := make([]int, len(r.mirrors))
	for _, pid := range pids {
		os := owners[pid]
		cands := append(append([]int(nil), os[1:]...), os[0])
		best := cands[0]
		for _, c := range cands[1:] {
			if load[c] < load[best] {
				best = c
			}
		}
		load[best]++
		scopes[best][pid] = true
	}
	return scopes
}

func remote(ms []core.Match) []server.RemoteMatch {
	out := make([]server.RemoteMatch, len(ms))
	for i, mt := range ms {
		out[i] = server.RemoteMatch{
			PatientID: mt.Stream.PatientID,
			SessionID: mt.Stream.SessionID,
			Start:     mt.Start,
			N:         mt.N,
			Relation:  mt.Relation.String(),
			Distance:  mt.Distance,
			Weight:    mt.Weight,
		}
	}
	return out
}

// diffMatches reports the first element-wise difference ("" if none).
func diffMatches(got, want []server.RemoteMatch) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("match %d is %+v, oracle has %+v", i, got[i], want[i])
		}
	}
	return ""
}

// run replays the phase then the probe, in op order (lockstep ticks
// keep that order equivalent to what the SUT saw), and the re-issued
// hot queries after the probe.
func (r *replay) run() ([][]server.RemoteMatch, error) {
	var err error
	if r.predPhase, r.matchPhase, err = r.ops(r.in.phase, r.hits); err != nil {
		return nil, err
	}
	if r.predProbe, r.matchProbe, err = r.ops(r.in.probe, nil); err != nil {
		return nil, err
	}
	// The re-issued hot queries are checks, not measured operations.
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	var final [][]server.RemoteMatch
	for qi := 0; qi < r.in.sp.hotQueries; qi++ {
		ms, err := r.match(r.in.queries[qi], 0)
		if err != nil {
			return nil, err
		}
		final = append(final, ms)
	}
	return final, nil
}

// ops replays a list. hits marks retrievals the SUT answered from the
// gateway's cache (hot-read's phase): those cost only the gateway's
// decode, and like every hot-read phase retrieval they are not checked
// against the oracle, since writes interleave with them.
func (r *replay) ops(ops []op, hits []bool) ([]prediction, [][]server.RemoteMatch, error) {
	preds := make([]prediction, len(ops))
	matches := make([][]server.RemoteMatch, len(ops))
	for j, o := range ops {
		r.seen[o.kind]++
		root := r.tr.op("op."+o.kind.String(), r.seen[o.kind]%allocSampleEvery == 0)
		var err error
		switch {
		case o.kind == opIngest:
			err = r.ingest(r.gating[o.sess], o.from, o.to, true)
		case o.kind == opPredict:
			preds[j], err = r.predict(r.gating[o.sess])
		case o.kind == opMatch && hits != nil && hits[j]:
			body, _ := json.Marshal(server.MatchRequest{Seq: r.in.queries[o.q], K: matchK, MaxLag: o.maxLag})
			var req server.MatchRequest
			r.call("codec.match_req_decode", func() { err = json.Unmarshal(body, &req) })
		case o.kind == opMatch && (hits == nil || r.full):
			matches[j], err = r.match(r.in.queries[o.q], o.maxLag)
		}
		r.tr.end(root)
		if err != nil {
			return nil, nil, err
		}
	}
	return preds, matches, nil
}
