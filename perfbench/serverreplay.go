package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/server"
)

// The server replay runs the same operations through three in-process
// server.Server instances (WAL on, replicating to each other through
// an in-memory transport), timing each Server.ServeHTTP call. Against
// the direct replay's layer calls for the same operation it gives the
// server layer's own cost: HTTP handling, JSON, the session lock and
// the replication ship.

// inproc routes replication requests to the in-process peer by host.
type inproc map[string]*server.Server

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	srv, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process server at %s", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Result(), nil
}

type serverReplay struct {
	in      *inputs
	rp      *replay // owners and match plans come from the direct replay
	urls    []string
	servers []*server.Server
	tr      *tracer
	seen    [numKinds]int
	// mismatches counts predictions that differ from the direct replay.
	mismatches int
}

func newServerReplay(in *inputs, rp *replay, tr *tracer, dir string) (*serverReplay, error) {
	sr := &serverReplay{in: in, rp: rp, urls: shardURLs(), tr: tr}
	tp := inproc{}
	for i, u := range sr.urls {
		d := filepath.Join(dir, fmt.Sprintf("server%d", i))
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
		srv, err := server.NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), server.Options{
			DataDir:            d,
			FsyncInterval:      defaultFsync,
			AdvertiseURL:       u,
			ReplicateTransport: tp,
		})
		if err != nil {
			return nil, err
		}
		tp[shardAddrs[i]] = srv
		sr.servers = append(sr.servers, srv)
	}
	return sr, nil
}

func (sr *serverReplay) close() {
	for _, s := range sr.servers {
		s.Close() //nolint:errcheck // scratch state
	}
}

// serve calls one server's ServeHTTP and checks the status.
func (sr *serverReplay) serve(i int, method, path string, body []byte, hdr http.Header, want ...int) ([]byte, int, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	id := sr.tr.begin("server.Server.ServeHTTP")
	sr.servers[i].ServeHTTP(rec, req)
	sr.tr.end(id)
	for _, w := range want {
		if rec.Code == w {
			return rec.Body.Bytes(), rec.Code, nil
		}
	}
	return nil, rec.Code, fmt.Errorf("%s %s on server %d: status %d: %s", method, path, i, rec.Code, trim(rec.Body.Bytes()))
}

// setup creates every session on its primary (replicating to the
// follower), bulk-loads it and registers the subscriptions, untimed.
func (sr *serverReplay) setup() error {
	tr := sr.tr
	sr.tr = nil
	defer func() { sr.tr = tr }()
	open := func(rs *rsession) error {
		var repl []string
		for _, o := range rs.owners[1:] {
			repl = append(repl, sr.urls[o])
		}
		b, _ := json.Marshal(server.CreateSessionRequest{PatientID: rs.s.pid, SessionID: rs.s.sid, Replicate: repl})
		if _, _, err := sr.serve(rs.owners[0], http.MethodPost, "/v1/sessions", b, nil, http.StatusCreated); err != nil {
			return err
		}
		for lo := 0; lo < rs.s.warm; lo += 300 {
			b, _ := json.Marshal(samplesIn(rs.s.samples[lo:min(lo+300, rs.s.warm)]))
			if _, _, err := sr.serve(rs.owners[0], http.MethodPost, "/v1/sessions/"+rs.s.sid+"/samples", b, nil, http.StatusOK); err != nil {
				return err
			}
		}
		return nil
	}
	for _, rs := range sr.rp.corpus {
		if err := open(rs); err != nil {
			return err
		}
	}
	for i, p := range sr.in.subPats {
		rs := sr.rp.corpus[p]
		b, _ := json.Marshal(server.SubscriptionRequest{Seq: sr.in.subSeqs[i], PatientID: rs.s.pid})
		if _, _, err := sr.serve(rs.owners[0], http.MethodPost, "/v1/subscriptions", b, nil, http.StatusCreated); err != nil {
			return err
		}
	}
	for _, rs := range sr.rp.gating {
		if err := open(rs); err != nil {
			return err
		}
	}
	return nil
}

// run replays the phase and probe operations; preds are the direct
// replay's predictions for the same ops, which every answer must equal.
// Retrievals marked in hits were gateway cache hits and reach no shard.
func (sr *serverReplay) run(ops []op, bodies [][]byte, preds []prediction, hits []bool) error {
	for j, o := range ops {
		sr.seen[o.kind]++
		root := sr.tr.op("op."+o.kind.String(), sr.seen[o.kind]%allocSampleEvery == 0)
		var err error
		switch o.kind {
		case opIngest:
			rs := sr.rp.gating[o.sess]
			_, _, err = sr.serve(rs.owners[0], http.MethodPost, "/v1/sessions/"+rs.s.sid+"/samples", bodies[j], nil, http.StatusOK)
		case opPredict:
			rs := sr.rp.gating[o.sess]
			var body []byte
			var code int
			body, code, err = sr.serve(rs.owners[0], http.MethodGet, "/v1/sessions/"+rs.s.sid+"/predict?delta=200ms", nil, nil,
				http.StatusOK, http.StatusConflict)
			if err == nil {
				got := prediction{covered: code == http.StatusOK}
				if got.covered {
					var pr server.PredictionResponse
					if err = json.Unmarshal(body, &pr); err == nil {
						got.pos = pr.Pos
					}
				}
				if !samePrediction(got, preds[j]) {
					sr.mismatches++
				}
			}
		case opMatch:
			if hits != nil && hits[j] {
				break
			}
			scopes := sr.rp.plan(o.maxLag)
			for i := range sr.servers {
				var hdr http.Header
				if scopes[i] != nil {
					var sc server.MatchScope
					for pid, mine := range sr.allPatients(scopes) {
						if mine != i {
							sc.Exclude = append(sc.Exclude, pid)
						}
					}
					sort.Strings(sc.Exclude)
					hdr = http.Header{}
					sc.SetHeaders(hdr)
				}
				if _, _, err = sr.serve(i, http.MethodPost, "/v1/match", bodies[j], hdr, http.StatusOK); err != nil {
					break
				}
			}
		}
		sr.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// allPatients maps each planned patient to the mirror pinned to it.
func (sr *serverReplay) allPatients(scopes []map[string]bool) map[string]int {
	out := map[string]int{}
	for i, sc := range scopes {
		for pid := range sc {
			out[pid] = i
		}
	}
	return out
}

func samePrediction(a, b prediction) bool {
	if a.covered != b.covered || len(a.pos) != len(b.pos) {
		return false
	}
	for k := range a.pos {
		if a.pos[k] != b.pos[k] {
			return false
		}
	}
	return true
}
