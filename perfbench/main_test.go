package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"testing"

	"cecsan/internal/fuzz"
	"cecsan/internal/traffic"
)

// exactCounts are the per-layer metrics that are pure functions of a
// workload's inputs, so every run must read the same values.
var exactCounts = []string{"interp.instructions", "san.checks", "san.mallocs", "san.frees"}

// allocTolerance holds the Go allocation counts of the allocation window
// and how far they may differ between processes. They do not repeat
// exactly, which fits Go's per-process random map hash seed: how often a
// large map splits a table or adds an overflow bucket depends on it.
// Allocations repeat to about one in ten thousand; bytes vary by up to
// 0.2% on spec.
var allocTolerance = map[string]float64{
	"engine.allocs_per_run": 1e-3,
	"engine.bytes_per_run":  5e-3,
}

// helperEnv, when set, makes the test binary run one workload's traced
// pass and print its metrics instead of running tests: each benchmark run
// is a fresh process, so that is how counts must repeat.
const helperEnv = "PERFBENCH_TRACED_PASS"

func TestMain(m *testing.M) {
	// The benchmark reads its inputs relative to the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	if name := os.Getenv(helperEnv); name != "" {
		l := newLedger()
		if err := tracedPassOf(name, l); err != nil {
			panic(err)
		}
		if len(l.checks) > 0 {
			panic(l.checks)
		}
		if err := json.NewEncoder(os.Stdout).Encode(l.metrics); err != nil {
			panic(err)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracedPassOf runs the traced pass of one workload at its default seed.
func tracedPassOf(name string, l *ledger) error {
	var pass func(r *replay) (int64, error)
	window := 2000
	switch name {
	case "juliet":
		pass = julietReplay
	case "spec":
		pass, window = func(r *replay) (int64, error) { return specReplay(l, r) }, 16
	case "fuzz":
		r, err := fuzz.NewRunner(fuzz.Config{Seed: defaultFuzzSeed, Count: fuzzCount, Workers: 2})
		if err != nil {
			return err
		}
		rep, err := r.Campaign()
		if err != nil {
			return err
		}
		pass = func(r *replay) (int64, error) { return fuzzReplay(l, r, defaultFuzzSeed, rep) }
	case "serve":
		spec, err := traffic.Load(servePath)
		if err != nil {
			return err
		}
		pass = func(r *replay) (int64, error) { return serveReplay(l, r, spec, defaultServeSeed, nil) }
	}
	_, err := tracedPass(l, pass, window)
	return err
}

// TestExactCountsRepeat runs each workload's traced pass in two fresh
// processes and requires the exact counts, and the spec suite's modelled
// and memory overheads, to match.
func TestExactCountsRepeat(t *testing.T) {
	exact := map[string][]string{"juliet": exactCounts, "fuzz": exactCounts, "serve": exactCounts}
	exact["spec"] = append([]string{"core.meta_bytes"}, exactCounts...)
	for _, tool := range specTools {
		exact["spec"] = append(exact["spec"], "san.model_overhead_pct."+string(tool), "san.mem_overhead_pct."+string(tool))
	}
	for _, name := range []string{"juliet", "spec", "fuzz", "serve"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "juliet" {
				t.Skip("the full Table II replay takes about a minute")
			}
			var runs [2]map[string]metric
			for i := range runs {
				cmd := exec.Command(os.Args[0], "-test.run=^$")
				cmd.Env = append(os.Environ(), helperEnv+"="+name)
				cmd.Dir = "perfbench"
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("traced pass: %v", err)
				}
				if err := json.Unmarshal(out, &runs[i]); err != nil {
					t.Fatalf("traced pass output: %v", err)
				}
			}
			for _, m := range exact[name] {
				a, ok := runs[0][m]
				if !ok {
					t.Errorf("%s not measured", m)
					continue
				}
				if b := runs[1][m]; a != b {
					t.Errorf("%s: %v then %v", m, a.Value, b.Value)
				}
			}
			for m, tol := range allocTolerance {
				a, b := runs[0][m].Value, runs[1][m].Value
				if a <= 0 || math.Abs(a-b) > tol*a {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
		})
	}
}
