package main

import (
	"fmt"

	"cecsan/internal/engine"
	"cecsan/internal/harness"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/prog"
)

// specTools are Table IV's sanitizer columns; native is the baseline.
var specTools = []sanitizers.Name{sanitizers.CECSan, sanitizers.ASan, sanitizers.ASanLite}

func specAll() []sanitizers.Name { return append([]sanitizers.Name{sanitizers.Native}, specTools...) }

// specReps is EvaluatePerf's repetitions per program and tool, of which it
// keeps the fastest (cmd/specbench keeps the fastest of 3). A single run
// of the same program under the same tool varies by up to a factor of 2;
// 2 reps keep a pass short enough for 3 passes in a 25 s run.
const specReps = 2

// runSpec measures the SPEC2006-like suite: few long runs, so interpreter
// dispatch and sanitizer checks and metadata do nearly all the work. Each
// pass makes one harness.EvaluatePerf call per program; a program's time
// is the median over passes of the fastest of its specReps runs. The
// suite does not depend on the seed.
func runSpec(l *ledger, _ int64, secs float64, traced bool) error {
	if err := specUntraced(l, secs); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	_, err := tracedPass(l, func(r *replay) (int64, error) { return specReplay(l, r) }, 16)
	return err
}

// specSetup is what a pass does before its first timed run: build every
// program, construct one engine per tool and instrument each program.
func specSetup() error {
	var progs []*prog.Program
	for _, w := range specsim.Spec2006() {
		progs = append(progs, w.Build())
	}
	for _, tool := range specAll() {
		eng, err := engine.New(tool, engine.Options{FreshRuntime: true})
		if err != nil {
			return err
		}
		for _, p := range progs {
			eng.Instrument(p)
		}
	}
	return nil
}

// specCheckNative runs every program once natively and compares its
// return value with specRets. EvaluatePerf compares each tool only with
// native, so this is what catches an interpreter that gets a program
// wrong under every tool alike.
func specCheckNative(l *ledger) error {
	eng, err := engine.New(sanitizers.Native, engine.Options{FreshRuntime: true})
	if err != nil {
		return err
	}
	for _, w := range specsim.Spec2006() {
		res, err := eng.Run(w.Build())
		if err != nil {
			return fmt.Errorf("spec: %s: %w", w.Name, err)
		}
		l.check(res.Ok() && res.Ret == specRets[w.Name], "spec: %s native returned %d (%v%v%v), reference %d",
			w.Name, res.Ret, res.Violation, res.Fault, res.Err, specRets[w.Name])
	}
	return nil
}

func specUntraced(l *ledger, secs float64) error {
	if err := specCheckNative(l); err != nil {
		return err
	}
	setup, err := newSetupTimer(15, specSetup)
	if err != nil {
		return fmt.Errorf("spec setup: %w", err)
	}

	// Each program is its own EvaluatePerf call, so a calibration sample
	// follows every few hundred milliseconds of runs.
	ws := specsim.Spec2006()
	times := map[sanitizers.Name]map[string][]float64{}
	refTimes := map[sanitizers.Name]map[string][]float64{}
	for _, tool := range specAll() {
		times[tool] = map[string][]float64{}
		refTimes[tool] = map[string][]float64{}
	}
	var heaps []float64
	var hits, lookups int64
	speed := newSpeedometer()
	speed.sample()
	err = gcShare(l, func() error {
		return loop(seconds(secs), 3, func(int) error {
			if err := setup.sample(); err != nil {
				return err
			}
			for _, w := range ws {
				pt, err := harness.EvaluatePerf([]specsim.Workload{w}, specTools, specReps)
				l.attempted += int64(len(specAll()) * specReps)
				if err != nil {
					// EvaluatePerf fails on any report, crash or return
					// value that differs from native's.
					l.failed++
					l.check(false, "spec: %v", err)
					continue
				}
				speed.sample()
				scale := speed.refScale()
				row := pt.Rows[0]
				for _, tool := range specAll() {
					s := row.NativeSeconds
					if tool != sanitizers.Native {
						s *= 1 + row.RuntimePct[tool]/100
					}
					times[tool][w.Name] = append(times[tool][w.Name], s)
					refTimes[tool][w.Name] = append(refTimes[tool][w.Name], s*scale)
				}
				for _, st := range pt.Engines {
					hits += st.CacheHits
					lookups += st.CacheHits + st.CacheMisses
				}
			}
			heaps = append(heaps, heapLiveMB())
			return nil
		})
	})
	if err != nil {
		return err
	}
	runS := map[sanitizers.Name]float64{}
	var total, refTotal float64
	var runs int
	for _, tool := range specAll() {
		for _, w := range ws {
			runS[tool] += median(times[tool][w.Name])
			refTotal += median(refTimes[tool][w.Name])
			runs++
		}
		total += runS[tool]
	}
	l.set("setup_s", median(setup.samples), "s")
	setThroughput(l, []float64{float64(runs) / total}, []float64{float64(runs) / refTotal}, speed)
	l.set("heap_live_mb", median(heaps), "MB")
	for _, tool := range specAll() {
		l.set("run_s."+string(tool), runS[tool], "s")
	}
	for _, tool := range specTools {
		l.set("san.extra_s."+string(tool), runS[tool]-runS[sanitizers.Native], "s")
		l.set("overhead_ratio."+string(tool), runS[tool]/runS[sanitizers.Native], "ratio")
	}
	l.set("engine.cache_hit_rate", float64(hits)/float64(lookups), "fraction")
	l.set("spec.passes", float64(len(heaps)), "count")
	l.notes["run_s_samples"] = times
	return nil
}

// specReplay runs every program once under native and each tool on one
// worker, and records the suite's exact counts: Table IV's modelled
// runtime overhead (harness.ModelCycles, the model EvaluateCycles applies),
// simulated peak memory overhead and CECSan's metadata bytes.
func specReplay(l *ledger, r *replay) (int64, error) {
	ws := specsim.Spec2006()
	engines := map[sanitizers.Name]*engine.Engine{}
	for _, tool := range specAll() {
		eng, err := engine.New(tool, engine.Options{FreshRuntime: true})
		if err != nil {
			return 0, err
		}
		engines[tool] = eng
	}
	models := harness.CostModels()
	modelPct := map[sanitizers.Name]float64{}
	memPct := map[sanitizers.Name]float64{}
	var metaBytes int64
	for i, w := range ws {
		s := r.t.begin(spanSpecBuild, -1, int64(i))
		p := w.Build()
		r.t.end(s)
		var base struct {
			ret    uint64
			cycles float64
			rss    int64
		}
		for _, tool := range specAll() {
			root := r.t.begin(spanCase, -1, int64(i))
			r.instrument(engines[tool], p, root, int64(i))
			res, err := r.execute(engines[tool], p, nil, root, int64(i))
			r.t.end(root)
			if err != nil {
				return 0, err
			}
			if !res.Ok() {
				l.check(false, "spec: %s under %s: %v%v%v", w.Name, tool, res.Violation, res.Fault, res.Err)
				continue
			}
			cycles := harness.ModelCycles(res.Stats, models[tool])
			if tool == sanitizers.Native {
				base.ret, base.cycles, base.rss = res.Ret, cycles, res.Stats.PeakRSS
				l.check(res.Ret == specRets[w.Name], "spec: %s native returned %d, reference %d", w.Name, res.Ret, specRets[w.Name])
				continue
			}
			l.check(res.Ret == base.ret, "spec: %s under %s returned %d, native %d", w.Name, tool, res.Ret, base.ret)
			modelPct[tool] += 100 * (cycles/base.cycles - 1) / float64(len(ws))
			memPct[tool] += 100 * (float64(res.Stats.PeakRSS)/float64(base.rss) - 1) / float64(len(ws))
			if tool == sanitizers.CECSan {
				metaBytes += res.Stats.PeakOverheadBytes
			}
		}
	}
	for _, tool := range specTools {
		l.set("san.model_overhead_pct."+string(tool), modelPct[tool], "%")
		l.set("san.mem_overhead_pct."+string(tool), memPct[tool], "%")
	}
	l.set("core.meta_bytes", float64(metaBytes), "B")
	return int64(len(ws)), nil
}
