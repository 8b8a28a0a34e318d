package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
)

// Every input is generated from the seed before any clock starts; the
// program under test receives nothing else.

const (
	sampleHz     = 30  // DefaultRespiration's imaging rate
	tickSamples  = 3   // 100 ms of 30 Hz motion per lockstep tick
	predictDelta = 0.2 // seconds ahead a gating prediction looks
	queryLen     = 10  // vertices in a retrieval query window
	matchK       = 10  // nearest neighbours a retrieval asks for
)

// spec sizes one workload. Operation counts scale with the run length
// through fixed per-second rates, so every count, and every quality
// figure, is a function of the seed and --seconds alone.
type spec struct {
	corpusPatients int     // history sessions bulk-loaded in setup
	corpusSecs     float64 // seconds of motion per history session
	live           int     // sessions the phase writes to
	probeSessions  int     // sessions the probe's lockstep ticks drive
	warmSecs       float64 // motion each live or probe session ingests in setup
	subs           int     // patient-scoped standing subscriptions
	ticksPerSec    float64 // live-gating: lockstep ticks per run second
	matchesPerSec  float64 // corpus-match: distinct queries per run second
	hotOpsPerSec   float64 // hot-read: mixed operations per run second
	hotQueries     int     // hot-read: size of the re-queried hot set
	hotMaxLag      int     // hot-read: max-lag on every match
	hotWriteEvery  int     // hot-read: one ingest per this many operations
	probeMatches   int     // distinct queries after the phase (live-gating)
	probeTicks     int     // lockstep ticks after the phase (others)
}

// Each workload's phase lacks some op type; a probe after the phase
// measures it, so every workload reports every metric: live-gating
// probes retrieval, the others probe ingest and predict on probe
// sessions that set-up warmed up.
var specs = map[string]spec{
	"live-gating": {
		corpusPatients: 24, corpusSecs: 180, live: 16, warmSecs: 20, subs: 4,
		ticksPerSec: 38, probeMatches: 1500,
	},
	"corpus-match": {
		corpusPatients: 120, corpusSecs: 180, probeSessions: 48, warmSecs: 20,
		matchesPerSec: 330, probeTicks: 60,
	},
	"hot-read": {
		corpusPatients: 12, corpusSecs: 180, live: 8, probeSessions: 48, warmSecs: 20,
		hotOpsPerSec: 2250, hotQueries: 32, hotMaxLag: 4, hotWriteEvery: 10, probeTicks: 60,
	},
}

// session is one generated ingestion stream: the samples it will send,
// in order. History sessions send all of them in setup; live and probe
// sessions send warm samples in setup and the rest tickSamples at a time.
type session struct {
	pid, sid string
	samples  []plr.Sample
	warm     int // samples ingested during setup
}

// truthAt interpolates the generated position at time t.
func (s *session) truthAt(t float64) []float64 {
	xs := s.samples
	j := sort.Search(len(xs), func(i int) bool { return xs[i].T >= t })
	if j == 0 {
		return xs[0].Pos
	}
	if j == len(xs) {
		return xs[len(xs)-1].Pos
	}
	a, b := xs[j-1], xs[j]
	f := (t - a.T) / (b.T - a.T)
	out := make([]float64, len(a.Pos))
	for k := range out {
		out[k] = a.Pos[k] + f*(b.Pos[k]-a.Pos[k])
	}
	return out
}

// opKind names the three operation types a client issues.
type opKind int

const (
	opIngest opKind = iota
	opPredict
	opMatch
	numKinds
)

func (k opKind) String() string { return [...]string{"ingest", "predict", "match"}[k] }

// op is one generated request. Ingest sends session sess's samples
// [from, to); predict asks session sess for its position predictDelta
// after sample to-1; match sends query q with maxLag.
type op struct {
	kind     opKind
	sess     int
	from, to int
	q        int
	maxLag   int
}

// inputs is everything a run sends, plus the order the in-process
// replay applies it in.
type inputs struct {
	workload string
	seed     int64
	sp       spec
	corpus   []*session
	// gating holds the live sessions, then the probe sessions; session
	// i belongs to corpus patient i mod corpusPatients.
	gating  []*session
	subPats []int // corpus indices of the subscription patients
	subSeqs []plr.Sequence
	queries []plr.Sequence
	// phase and probe are the measured operations and the operations
	// after them (the op types the phase lacks); ticks is non-zero when
	// they run in lockstep ticks: each session's ingest, then each
	// session's predict.
	phase, probe           []op
	phaseTicks, probeTicks int
}

// generate builds a workload's inputs for seed.
func generate(workload string, seed int64, seconds, clients int) (*inputs, error) {
	sp, ok := specs[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{workload: workload, seed: seed, sp: sp}
	motion := func(secs float64) ([]plr.Sample, error) {
		g, err := signal.NewRespiration(signal.DefaultRespiration(), rng.Int63())
		if err != nil {
			return nil, err
		}
		return g.Generate(secs), nil
	}

	phaseTicks := int(math.Round(sp.ticksPerSec * float64(seconds)))
	hotOps := int(math.Round(sp.hotOpsPerSec * float64(seconds)))
	for i := 0; i < sp.corpusPatients; i++ {
		xs, err := motion(sp.corpusSecs)
		if err != nil {
			return nil, err
		}
		in.corpus = append(in.corpus, &session{
			pid: fmt.Sprintf("P%03d", i), sid: fmt.Sprintf("H%03d", i),
			samples: xs, warm: len(xs),
		})
	}
	// Live sessions carry the phase's ticks or hot-read's writes; probe
	// sessions the probe's ticks.
	liveSecs := sp.warmSecs + float64(phaseTicks+2)/10
	if hotOps > 0 {
		liveSecs += float64(hotOps/sp.hotWriteEvery/min(sp.live, clients)/((sp.live+clients-1)/clients)+2) / 10
	}
	probeSecs := sp.warmSecs + float64(sp.probeTicks+2)/10
	for i := 0; i < sp.live+sp.probeSessions; i++ {
		secs, sid := liveSecs, fmt.Sprintf("L%03d", i)
		if i >= sp.live {
			secs, sid = probeSecs, fmt.Sprintf("Q%03d", i-sp.live)
		}
		xs, err := motion(secs + 1)
		if err != nil {
			return nil, err
		}
		in.gating = append(in.gating, &session{
			pid: in.corpus[i%sp.corpusPatients].pid, sid: sid,
			samples: xs, warm: int(sp.warmSecs * sampleHz),
		})
	}

	// Queries are distinct windows of held-out motion that is never
	// ingested, in a seeded order.
	nQueries := sp.probeMatches + sp.hotQueries + int(math.Round(sp.matchesPerSec*float64(seconds)))
	for len(in.queries) < nQueries {
		xs, err := motion(180)
		if err != nil {
			return nil, err
		}
		vs, err := fsm.SegmentAll(fsm.DefaultConfig(), xs)
		if err != nil {
			return nil, err
		}
		for j := 0; j+queryLen <= len(vs); j++ {
			in.queries = append(in.queries, vs[j:j+queryLen])
		}
	}
	rng.Shuffle(len(in.queries), func(a, b int) { in.queries[a], in.queries[b] = in.queries[b], in.queries[a] })
	in.queries = in.queries[:nQueries]

	// Subscriptions watch the first live sessions' patients for a window of
	// their own history, so live ingest produces events.
	for i := 0; i < sp.subs; i++ {
		vs, err := fsm.SegmentAll(fsm.DefaultConfig(), in.corpus[i].samples)
		if err != nil {
			return nil, err
		}
		at := rng.Intn(len(vs) - queryLen)
		in.subPats = append(in.subPats, i)
		in.subSeqs = append(in.subSeqs, vs[at:at+queryLen])
	}

	cursor := make([]int, len(in.gating))
	for i, s := range in.gating {
		cursor[i] = s.warm
	}
	ticks := func(first, sessions, n int) []op {
		var ops []op
		for t := 0; t < n; t++ {
			for i := first; i < first+sessions; i++ {
				ops = append(ops, op{kind: opIngest, sess: i, from: cursor[i], to: cursor[i] + tickSamples})
				cursor[i] += tickSamples
			}
			for i := first; i < first+sessions; i++ {
				ops = append(ops, op{kind: opPredict, sess: i, to: cursor[i]})
			}
		}
		return ops
	}
	matches := func(first, n, maxLag int) []op {
		ops := make([]op, n)
		for j := range ops {
			ops[j] = op{kind: opMatch, q: first + j, maxLag: maxLag}
		}
		return ops
	}
	switch workload {
	case "live-gating":
		in.phase, in.phaseTicks = ticks(0, sp.live, phaseTicks), phaseTicks
		in.probe = matches(0, sp.probeMatches, 0)
	case "corpus-match":
		in.phase = matches(0, len(in.queries), 0)
		in.probe, in.probeTicks = ticks(sp.live, sp.probeSessions, sp.probeTicks), sp.probeTicks
	case "hot-read":
		// Client c issues ops j with j%clients == c (see runOps); its
		// ingests go round-robin to the sessions i with i%clients == c,
		// so each session's samples arrive in order.
		zipf := rand.NewZipf(rng, 1.2, 2, uint64(sp.hotQueries-1))
		next := make([]int, clients) // round-robin over each client's sessions
		for j := 0; j < hotOps; j++ {
			c := j % clients
			var o op
			if (j/clients)%sp.hotWriteEvery == sp.hotWriteEvery-1 && c < sp.live {
				owned := (sp.live - c + clients - 1) / clients
				i := c + clients*(next[c]%owned)
				next[c]++
				o = op{kind: opIngest, sess: i, from: cursor[i], to: cursor[i] + tickSamples}
				cursor[i] += tickSamples
			} else {
				o = op{kind: opMatch, q: int(zipf.Uint64()), maxLag: sp.hotMaxLag}
			}
			in.phase = append(in.phase, o)
		}
		in.probe, in.probeTicks = ticks(sp.live, sp.probeSessions, sp.probeTicks), sp.probeTicks
	}
	for i, s := range in.gating {
		if cursor[i]+int(predictDelta*sampleHz)+1 > len(s.samples) {
			return nil, fmt.Errorf("session %s: motion too short for %d samples", s.sid, cursor[i])
		}
	}
	return in, nil
}

// fingerprint summarizes the generated inputs, so two seeds can be
// shown to differ and one seed to repeat.
func (in *inputs) fingerprint() float64 {
	var h float64
	for i, s := range in.corpus {
		h += float64(i+1) * s.samples[len(s.samples)/2].Pos[0]
	}
	for i, q := range in.queries {
		if i >= 50 {
			break
		}
		h += float64(i+1) * q[0].Pos[0]
	}
	return h
}
