package main

import (
	"fmt"
	"runtime"
	"time"

	"cecsan/csrc"
	"cecsan/internal/engine"
	"cecsan/internal/fuzz"
	"cecsan/internal/sanitizers"
)

// fuzzCount is the campaign length. Every case is a new program, so the
// campaign cache only fills; its size sets the heap the workload holds.
const fuzzCount = 2000

// defaultFuzzSeed is the seed of the repository's fuzz smoke target.
const defaultFuzzSeed = 7

// runFuzz measures differential campaigns across all eight tools: every
// case is a new program, so the generator, csrc.Compile, the instrument
// pass and cache fills dominate, and the cache hit rate is 0. Each unit
// is NewRunner (the set-up) plus one Campaign with the same seed.
func runFuzz(l *ledger, seed int64, secs float64, traced bool) error {
	if seed < 0 {
		seed = defaultFuzzSeed
	}
	rep, err := fuzzUntraced(l, uint64(seed), secs)
	if err != nil {
		return err
	}
	if !traced {
		return nil
	}
	spans, err := tracedPass(l, func(r *replay) (int64, error) { return fuzzReplay(l, r, uint64(seed), rep) }, 2000)
	if err != nil {
		return err
	}
	l.set("fuzz.gen_us", spans["fuzz.Generate"].MeanUS, "us")
	l.set("csrc.compile_us", spans["csrc.Compile"].MeanUS, "us")
	return nil
}

func fuzzUntraced(l *ledger, seed uint64, secs float64) (*fuzz.Report, error) {
	// NewRunner takes tens of microseconds, so it is sampled several
	// times per campaign.
	setup, err := newSetupTimer(5, func() error {
		_, err := fuzz.NewRunner(fuzz.Config{Seed: seed, Count: fuzzCount, Workers: 2})
		return err
	})
	if err != nil {
		return nil, err
	}
	var ops, opsRef, heaps []float64
	var first *fuzz.Report
	var hits, lookups int64
	speed := newSpeedometer()
	speed.sample()
	err = gcShare(l, func() error {
		return loop(seconds(secs), 5, func(int) error {
			if err := setup.sample(); err != nil {
				return err
			}
			r, err := fuzz.NewRunner(fuzz.Config{Seed: seed, Count: fuzzCount, Workers: 2})
			if err != nil {
				return err
			}
			t0 := time.Now()
			rep, err := r.Campaign()
			if err != nil {
				return err
			}
			rate := float64(fuzzCount) / time.Since(t0).Seconds()
			speed.sample()
			ops = append(ops, rate)
			opsRef = append(opsRef, rate/speed.refScale())
			l.attempted += int64(fuzzCount * len(r.Tools()))
			l.failed += int64(len(rep.Findings) + rep.HarnessFaults)
			l.check(len(rep.Findings) == 0 && rep.HarnessFaults == 0,
				"fuzz: seed %d: %d findings, %d harness faults", seed, len(rep.Findings), rep.HarnessFaults)
			if first == nil {
				first = rep
				if want, ok := fuzzDigests[seed]; ok {
					l.check(rep.CaseDigest == want, "fuzz: seed %d case digest %s, reference %s", seed, rep.CaseDigest, want)
				}
			}
			l.check(rep.CaseDigest == first.CaseDigest, "fuzz: case digest changed between campaigns of seed %d", seed)
			for _, st := range r.Stats() {
				hits += st.CacheHits
				lookups += st.CacheHits + st.CacheMisses
			}
			// The runner, its engines and the campaign cache are still
			// reachable here.
			heaps = append(heaps, heapLiveMB())
			runtime.KeepAlive(r)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	l.set("setup_s", median(setup.samples), "s")
	setThroughput(l, ops, opsRef, speed)
	l.set("heap_live_mb", median(heaps), "MB")
	l.set("engine.cache_hit_rate", float64(hits)/float64(lookups), "fraction")
	l.set("fuzz.campaigns", float64(len(ops)), "count")
	l.notes["case_digest"] = first.CaseDigest
	return first, nil
}

// caseSeed is the fuzz package's per-case seed derivation (a splitmix64
// step over the campaign seed and case index). The replay checks its shape
// tally against the campaign report, which catches any drift.
func caseSeed(base uint64, i int) uint64 {
	s := base ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	s += 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fuzzReplay is the campaign's per-case sequence on one worker: generate,
// compile, then per tool instrument (a cache fill) and run. Engines are
// configured as fuzz.NewRunner configures them.
func fuzzReplay(l *ledger, r *replay, seed uint64, rep *fuzz.Report) (int64, error) {
	cache := engine.NewCache(0)
	var engines []*engine.Engine
	for _, tool := range sanitizers.All() {
		eng, err := engine.New(tool, engine.Options{
			Workers: 1, MaxInstructions: 50_000_000, WallBudget: 30 * time.Second,
			RuntimeSeed: seed, Cache: cache,
		})
		if err != nil {
			return 0, err
		}
		engines = append(engines, eng)
	}
	shapes := map[string]int{}
	for i := 0; i < fuzzCount; i++ {
		root := r.t.begin(spanCase, -1, int64(i))
		s := r.t.begin(spanFuzzGenerate, root, int64(i))
		c := fuzz.Generate(caseSeed(seed, i))
		r.t.end(s)
		s = r.t.begin(spanCompile, root, int64(i))
		p, err := csrc.Compile(c.Source)
		r.t.end(s)
		if err != nil {
			return 0, fmt.Errorf("fuzz: case %d: %w", i, err)
		}
		if c.Oracle.Injected {
			shapes[c.Oracle.Shape]++
		}
		for _, eng := range engines {
			r.instrument(eng, p, root, int64(i))
			if _, err := r.execute(eng, p, c.Inputs, root, int64(i)); err != nil {
				return 0, err
			}
		}
		r.t.end(root)
	}
	same := len(shapes) == len(rep.Shapes)
	for k, v := range rep.Shapes {
		same = same && shapes[k] == v
	}
	l.check(same, "fuzz: replayed shape tally %v differs from the campaign's %v", shapes, rep.Shapes)
	return fuzzCount, nil
}
