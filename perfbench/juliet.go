package main

import (
	_ "embed"
	"fmt"
	"time"

	"cecsan/internal/engine"
	"cecsan/internal/harness"
	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
)

// julietTools are Table II's columns, in the order cmd/julietbench runs them.
var julietTools = []sanitizers.Name{
	sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
	sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
}

// table2Ref is harness.FormatTable2 of the full suite, recorded when the
// benchmark was added. The suite has no seed, so one reference serves all.
//
//go:embed refs/table2.txt
var table2Ref string

// runJuliet measures the full Table II evaluation: many short runs on a
// warm instrumentation cache. Each pass is one harness.EvaluateJuliet call,
// which builds a fresh cache and pre-instruments every case before its run
// loop, so a pass splits into set-up (the prefill) and the run phase the
// engines time themselves. The suite does not depend on the seed.
func runJuliet(l *ledger, _ int64, secs float64, traced bool) error {
	if err := julietUntraced(l, secs); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	_, err := tracedPass(l, julietReplay, 2000)
	return err
}

func julietUntraced(l *ledger, secs float64) error {
	var suite []*juliet.Case
	var suiteS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s, err := juliet.Suite()
		if err != nil {
			return fmt.Errorf("juliet suite: %w", err)
		}
		suiteS = append(suiteS, time.Since(t0).Seconds())
		suite = s
	}

	// The progress hook fires once per tool at the end of its run loop;
	// after the last tool's final run the engine and the campaign cache
	// are still reachable, which is when the heap is read.
	last := julietTools[len(julietTools)-1]
	var heapMB, hookS float64
	harness.ProgressEvery = 1 << 30
	harness.Progress = func(tool sanitizers.Name, done, total int) {
		if tool == last && done == total {
			t0 := time.Now()
			heapMB = heapLiveMB()
			hookS = time.Since(t0).Seconds()
		}
	}
	defer func() { harness.Progress = nil }()

	var ops, opsRef, prefill, heaps []float64
	var hits, lookups int64
	speed := newSpeedometer()
	speed.sample()
	err := gcShare(l, func() error {
		return loop(seconds(secs), 3, func(int) error {
			t0 := time.Now()
			ev, err := harness.EvaluateJuliet(suite, julietTools, 2)
			wall := time.Since(t0).Seconds()
			if err != nil {
				l.failed++
				l.attempted++
				l.check(false, "juliet: %v", err)
				return nil
			}
			var runWall time.Duration
			var runs int64
			for _, tr := range ev.Tools {
				st := tr.Engine
				runWall += st.Wall
				runs += st.Runs
				l.failed += st.Faults
				hits += st.CacheHits
				lookups += st.CacheHits + st.CacheMisses
			}
			l.attempted += runs
			rate := float64(runs) / runWall.Seconds()
			speed.sample()
			ops = append(ops, rate)
			opsRef = append(opsRef, rate/speed.refScale())
			prefill = append(prefill, wall-runWall.Seconds()-hookS)
			heaps = append(heaps, heapMB)
			got := harness.FormatTable2(ev)
			l.check(got == table2Ref, "juliet: Table II differs from the reference:\n%s", got)
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.notes["prefill_s_samples"] = prefill
	l.set("setup_s", median(suiteS)+median(prefill), "s")
	setThroughput(l, ops, opsRef, speed)
	l.set("heap_live_mb", median(heaps), "MB")
	l.set("juliet.suite_s", median(suiteS), "s")
	l.set("engine.prefill_s", median(prefill), "s")
	l.set("engine.cache_hit_rate", float64(hits)/float64(lookups), "fraction")
	l.set("juliet.passes", float64(len(ops)), "count")
	return nil
}

// julietSubset mirrors harness.EvaluateJuliet's per-tool case filter: the
// published evaluation subsets of PACMem, CryptSan and SoftBound/CETS.
func julietSubset(tool sanitizers.Name) func(*juliet.Case) bool {
	switch tool {
	case sanitizers.PACMem:
		return juliet.SubsetPACMem
	case sanitizers.CryptSan:
		return juliet.SubsetCryptSan
	case sanitizers.SoftBound:
		return juliet.SubsetSoftBound
	}
	return func(*juliet.Case) bool { return true }
}

// julietReplay is the evaluation's per-run sequence on one worker:
// generate the suite, then per tool pre-instrument every bad and good
// program and run each case's pair.
func julietReplay(r *replay) (int64, error) {
	var suite []*juliet.Case
	counts := juliet.TableI()
	for _, cwe := range juliet.AllCWEs() {
		s := r.t.begin(spanJulietGenerate, -1, int64(cwe))
		cases, err := juliet.Generate(cwe, counts[cwe])
		r.t.end(s)
		if err != nil {
			return 0, err
		}
		suite = append(suite, cases...)
	}
	cache := engine.NewCache(0)
	for _, tool := range julietTools {
		eng, err := engine.New(tool, engine.Options{Workers: 1, Cache: cache})
		if err != nil {
			return 0, err
		}
		include := julietSubset(tool)
		for i, cs := range suite {
			if include(cs) {
				root := r.t.begin(spanPrefill, -1, int64(i))
				r.instrument(eng, cs.Bad, root, int64(i))
				r.instrument(eng, cs.Good, root, int64(i))
				r.t.end(root)
			}
		}
		for i, cs := range suite {
			if !include(cs) {
				continue
			}
			root := r.t.begin(spanCase, -1, int64(i))
			if _, err := r.execute(eng, cs.Bad, cs.BadInputs, root, int64(i)); err != nil {
				return 0, err
			}
			if _, err := r.execute(eng, cs.Good, cs.GoodInputs, root, int64(i)); err != nil {
				return 0, err
			}
			r.t.end(root)
		}
	}
	return int64(len(suite)), nil
}
