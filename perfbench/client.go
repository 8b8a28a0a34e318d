package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
)

// newClient builds the generator's HTTP client: at most conns
// keep-alive connections to the gateway.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// outcome is what one operation observed.
type outcome struct {
	startMS  float64 // since the phase began
	latMS    float64
	status   int
	covered  bool      // predict answered 200
	pos      []float64 // predicted position
	matches  []server.RemoteMatch
	cacheHit bool
	planned  int // patient arcs the gateway planned (cache misses)
	follower int // of those, served by a follower
	err      string
}

// bodies pre-encodes every request body before the clock starts.
func (in *inputs) bodies(ops []op) ([][]byte, error) {
	out := make([][]byte, len(ops))
	for j, o := range ops {
		var v any
		switch o.kind {
		case opIngest:
			v = samplesIn(in.gating[o.sess].samples[o.from:o.to])
		case opMatch:
			v = server.MatchRequest{Seq: in.queries[o.q], K: matchK, MaxLag: o.maxLag}
		default:
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out[j] = b
	}
	return out, nil
}

func samplesIn(xs []plr.Sample) []server.SampleIn {
	out := make([]server.SampleIn, len(xs))
	for i, s := range xs {
		out[i] = server.SampleIn{T: s.T, Pos: s.Pos}
	}
	return out
}

// call issues one request and reads the whole response.
func call(c *http.Client, method, url string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// do runs one operation against the gateway at base.
func (in *inputs) do(c *http.Client, base string, o op, body []byte) outcome {
	var out outcome
	var status int
	var resp []byte
	var hdr http.Header
	var err error
	start := time.Now()
	switch o.kind {
	case opIngest:
		status, resp, hdr, err = call(c, http.MethodPost, base+"/v1/sessions/"+in.gating[o.sess].sid+"/samples", body)
	case opPredict:
		status, resp, hdr, err = call(c, http.MethodGet, base+"/v1/sessions/"+in.gating[o.sess].sid+"/predict?delta=200ms", nil)
	case opMatch:
		status, resp, hdr, err = call(c, http.MethodPost, base+"/v1/match", body)
	}
	out.latMS = float64(time.Since(start).Nanoseconds()) / 1e6
	out.status = status
	if err != nil {
		out.err = err.Error()
		return out
	}
	switch {
	case o.kind == opIngest:
		var r server.SamplesResponse
		if status != http.StatusOK {
			out.err = fmt.Sprintf("ingest status %d: %s", status, trim(resp))
		} else if e := json.Unmarshal(resp, &r); e != nil {
			out.err = "ingest response: " + e.Error()
		} else if r.Accepted != o.to-o.from || len(r.ReplicaErrors) > 0 {
			out.err = fmt.Sprintf("ingest accepted %d of %d, replica errors %v", r.Accepted, o.to-o.from, r.ReplicaErrors)
		}
	case o.kind == opPredict && status == http.StatusConflict:
		// Not enough history or no match within the threshold: an
		// uncovered prediction, not a failure.
	case o.kind == opPredict:
		var r server.PredictionResponse
		if status != http.StatusOK {
			out.err = fmt.Sprintf("predict status %d: %s", status, trim(resp))
		} else if e := json.Unmarshal(resp, &r); e != nil {
			out.err = "predict response: " + e.Error()
		} else {
			out.covered, out.pos = true, r.Pos
		}
	case o.kind == opMatch:
		var r shard.MatchResult
		if status != http.StatusOK {
			out.err = fmt.Sprintf("match status %d: %s", status, trim(resp))
		} else if e := json.Unmarshal(resp, &r); e != nil {
			out.err = "match response: " + e.Error()
		} else if r.Degraded || len(r.ShardErrors) > 0 || len(r.UnservedPatients) > 0 {
			out.err = fmt.Sprintf("match degraded: %v %v", r.ShardErrors, r.UnservedPatients)
		} else {
			out.matches = r.Matches
			out.cacheHit = hdr.Get("X-Cache") == "hit"
			if !out.cacheHit {
				out.planned, out.follower = r.PlannedPatients, r.FollowerServed
			}
		}
	}
	return out
}

func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// runOps executes ops closed-loop: client w issues ops j with
// j%clients == w, in order, each after the previous reply. With
// ticks > 0 the ops are lockstep ticks (every session's ingest, then
// every session's predict) and each half-tick completes before the
// next starts. It returns the outcomes by op index and the wall time.
func (in *inputs) runOps(c *http.Client, base string, ops []op, bodies [][]byte, ticks, clients int) ([]outcome, time.Duration) {
	out := make([]outcome, len(ops))
	start := time.Now()
	run := func(lo, hi int) {
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := lo + w; j < hi; j += clients {
					at := time.Since(start)
					out[j] = in.do(c, base, ops[j], bodies[j])
					out[j].startMS = float64(at.Nanoseconds()) / 1e6
				}
			}(w)
		}
		wg.Wait()
	}
	if ticks > 0 {
		half := len(ops) / ticks / 2
		for lo := 0; lo < len(ops); lo += half {
			run(lo, lo+half)
		}
	} else {
		run(0, len(ops))
	}
	return out, time.Since(start)
}

// load is the set-up: create and bulk-load every history session,
// register the standing subscriptions, then open and warm the gating
// sessions, all through the gateway.
func (in *inputs) load(c *http.Client, base string, clients int) error {
	const batch = 300 // samples per bulk ingest request (10 s of motion)
	bulk := func(ss []*session) error {
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ss) && errs[w] == nil; i += clients {
					errs[w] = createAndIngest(c, base, ss[i], batch)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := bulk(in.corpus); err != nil {
		return err
	}
	for i, p := range in.subPats {
		b, err := json.Marshal(server.SubscriptionRequest{Seq: in.subSeqs[i], PatientID: in.corpus[p].pid})
		if err != nil {
			return err
		}
		status, resp, _, err := call(c, http.MethodPost, base+"/v1/subscriptions", b)
		if err != nil {
			return fmt.Errorf("subscribing: %w", err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("subscribing: status %d: %s", status, trim(resp))
		}
	}
	return bulk(in.gating)
}

func createAndIngest(c *http.Client, base string, s *session, batch int) error {
	b, err := json.Marshal(server.CreateSessionRequest{PatientID: s.pid, SessionID: s.sid})
	if err != nil {
		return err
	}
	status, resp, _, err := call(c, http.MethodPost, base+"/v1/sessions", b)
	if err != nil {
		return fmt.Errorf("creating %s: %w", s.sid, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("creating %s: status %d: %s", s.sid, status, trim(resp))
	}
	for lo := 0; lo < s.warm; lo += batch {
		hi := min(lo+batch, s.warm)
		b, err := json.Marshal(samplesIn(s.samples[lo:hi]))
		if err != nil {
			return err
		}
		status, resp, _, err := call(c, http.MethodPost, base+"/v1/sessions/"+s.sid+"/samples", b)
		if err != nil {
			return fmt.Errorf("loading %s: %w", s.sid, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("loading %s: status %d: %s", s.sid, status, trim(resp))
		}
	}
	return nil
}
