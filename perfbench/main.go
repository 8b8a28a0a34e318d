// Command perfbench is the repository's end-to-end benchmark. It boots
// the production topology from the repo's own binaries (cmd/gateway in
// front of three cmd/streamd, -replicas 2, WAL on), drives one of three
// workloads closed-loop from this single generator process, checks
// every answer against in-process oracles, and prints the metrics.
//
//	bash perfbench/run.sh --workload live-gating --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
// repeats the run, then replays the same operations in process with
// spans around each layer's public functions and prints the per-layer
// metrics. The last line of standard output is the JSON result; the
// full record (seed, nproc, GOMAXPROCS, Go version, revision, op
// counts, sample counts) is written under the work directory.
//
// --selfcheck runs the workload twice on one seed and fails unless the
// deterministic figures repeat exactly and another seed's inputs differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
	rev      string
}

func main() {
	var cfg config
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "live-gating, corpus-match or hot-read")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced replay and print per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the built gateway and streamd")
	flag.StringVar(&cfg.workDir, "work", "", "scratch directory for data dirs, logs, traces and records")
	flag.StringVar(&cfg.rev, "rev", "unknown", "source revision recorded in the result")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run twice on one seed and compare the deterministic figures")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := specs[cfg.workload]; !ok || cfg.binDir == "" || cfg.workDir == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (live-gating|corpus-match|hot-read), --bin, --work and --seconds >= 1")
		os.Exit(2)
	}
	if selfcheck {
		if err := selfCheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-check failed:", err)
			os.Exit(1)
		}
		fmt.Println("self-check passed")
		return
	}
	rec, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path := filepath.Join(cfg.workDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := rec.EndToEnd
	if cfg.trace {
		metrics = rec.PerLayer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, f := range rec.Failures {
		fmt.Println("failure:", f)
	}
	fmt.Println("record:", path)
	out, err := json.Marshal(map[string]any{
		"correct":   rec.Correct,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfCheck runs the workload twice on one seed: every figure the
// inputs fix must repeat exactly, and a different seed must give
// different inputs.
func selfCheck(cfg config) error {
	cfg.trace = false
	a, err := runOnce(cfg)
	if err != nil {
		return err
	}
	b, err := runOnce(cfg)
	if err != nil {
		return err
	}
	var diffs []string
	for name, va := range a.Deterministic {
		if vb := b.Deterministic[name]; va != vb {
			diffs = append(diffs, fmt.Sprintf("%s: %v then %v", name, va, vb))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("same seed, different figures: %s", strings.Join(diffs, "; "))
	}
	x, err := generate(cfg.workload, cfg.seed+1, cfg.seconds, a.Meta.Clients)
	if err != nil {
		return err
	}
	if x.fingerprint() == a.Meta.InputFingerprint {
		return fmt.Errorf("seeds %d and %d generated the same inputs", cfg.seed, cfg.seed+1)
	}
	for name, v := range a.Deterministic {
		fmt.Printf("repeated exactly: %-40s %v\n", name, v)
	}
	return nil
}
