package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"cecsan/internal/engine"
	"cecsan/internal/interp"
	"cecsan/prog"
)

// Layers a span can belong to. gen is the workload's input generator
// (juliet, specsim, fuzz or traffic); bench is the benchmark's own loop.
const (
	layerBench      = "bench"
	layerGen        = "gen"
	layerCsrc       = "csrc"
	layerInstrument = "instrument"
	layerEngine     = "engine"
	layerInterp     = "interp"
)

var layers = []string{layerGen, layerCsrc, layerInstrument, layerEngine, layerInterp, layerBench}

// spanKind names a span and fixes its layer. Spans hold the kind, not
// strings, so the in-memory span log has no pointers for the collector to
// scan.
type spanKind uint8

const (
	spanCase    spanKind = iota // one item of the workload (root)
	spanPrefill                 // pre-instrumenting one item (root)
	spanJulietGenerate
	spanSpecBuild
	spanFuzzGenerate
	spanCompile
	spanNewStream
	spanStreamNext
	spanLookup // Engine.Instrument served from the cache
	spanApply  // Engine.Instrument that ran the instrument pass
	spanNewMachine
	spanRun
	spanRelease
)

var spanKinds = [...]struct{ name, layer string }{
	spanCase:           {"item", layerBench},
	spanPrefill:        {"item.prefill", layerBench},
	spanJulietGenerate: {"juliet.Generate", layerGen},
	spanSpecBuild:      {"specsim.Build", layerGen},
	spanFuzzGenerate:   {"fuzz.Generate", layerGen},
	spanCompile:        {"csrc.Compile", layerCsrc},
	spanNewStream:      {"traffic.NewStream", layerGen},
	spanStreamNext:     {"traffic.Stream.Next", layerGen},
	spanLookup:         {"engine.Instrument", layerEngine},
	spanApply:          {"instrument.Apply", layerInstrument},
	spanNewMachine:     {"engine.NewMachine", layerEngine},
	spanRun:            {"interp.Run", layerInterp},
	spanRelease:        {"engine.Release", layerEngine},
}

// span is one call into a layer, timed in nanoseconds from the tracer's
// epoch. parent indexes the enclosing span, -1 for a root; item is the
// case or request the span belongs to.
type span struct {
	start  int64
	end    int64
	item   int64
	parent int32
	kind   spanKind
}

// tracer keeps spans in memory. A tracer that is off records nothing, so
// the same replay code runs with and without tracing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(kind spanKind, parent int32, item int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{kind: kind, start: int64(time.Since(t.epoch)), parent: parent, item: item})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// spanSummary aggregates one span name.
type spanSummary struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanUS  float64 `json:"mean_us"`
}

// summarize returns per-name totals and per-layer self time (a span's
// duration minus the time its child spans cover) in nanoseconds.
func (t *tracer) summarize() (byName map[string]*spanSummary, self map[string]int64, total int64) {
	byName = map[string]*spanSummary{}
	self = map[string]int64{}
	childNS := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		if s.parent >= 0 {
			childNS[s.parent] += d
		} else {
			total += d
		}
		name := spanKinds[s.kind].name
		ss := byName[name]
		if ss == nil {
			ss = &spanSummary{}
			byName[name] = ss
		}
		ss.Count++
		ss.TotalMS += float64(d) / 1e6
	}
	for i := range t.spans {
		s := &t.spans[i]
		self[spanKinds[s.kind].layer] += s.end - s.start - childNS[i]
	}
	for _, ss := range byName {
		ss.MeanUS = ss.TotalMS * 1e3 / float64(ss.Count)
	}
	return byName, self, total
}

// errWindowClosed ends an allocation replay once its window is measured.
var errWindowClosed = errors.New("allocation window closed")

// replay drives programs through the engine's public calls one at a time,
// with a span around each call, and accumulates the exact counts of every
// run. An allocation replay measures Go allocations over its first
// allocWindow executions, with the collector off so no sync.Pool is emptied
// mid-window, and then stops.
type replay struct {
	t *tracer

	runs         int64
	instructions int64
	checks       int64
	mallocs      int64
	frees        int64

	allocWindow int   // executions left to measure
	gcPercent   int   // the collector setting to restore after it
	allocRuns   int64 // executions measured
	allocs      int64
	allocBytes  int64
}

func newReplay(traced bool) *replay { return &replay{t: newTracer(traced)} }

func newAllocReplay(window int) *replay {
	return &replay{t: newTracer(false), allocWindow: window}
}

// instrument calls Engine.Instrument. When tracing, the span is named
// after whether the call hit the cache or ran the instrument pass.
func (r *replay) instrument(eng *engine.Engine, p *prog.Program, parent int32, item int64) {
	if !r.t.on {
		eng.Instrument(p)
		return
	}
	before := eng.Stats().CacheMisses
	s := r.t.begin(spanLookup, parent, item)
	eng.Instrument(p)
	r.t.end(s)
	if eng.Stats().CacheMisses != before {
		r.t.spans[s].kind = spanApply
	}
}

// execute is one run as the harness makes it: a cache lookup, then
// NewMachine, Feed, Run and Release.
func (r *replay) execute(eng *engine.Engine, p *prog.Program, inputs [][]byte, parent int32, item int64) (*interp.Result, error) {
	r.instrument(eng, p, parent, item)
	var ms runtime.MemStats
	measure := r.allocWindow > 0
	if measure {
		if r.allocRuns == 0 {
			r.gcPercent = debug.SetGCPercent(-1)
		}
		runtime.ReadMemStats(&ms)
		r.allocs -= int64(ms.Mallocs)
		r.allocBytes -= int64(ms.TotalAlloc)
	}
	s := r.t.begin(spanNewMachine, parent, item)
	m, err := eng.NewMachine(p)
	r.t.end(s)
	if err != nil {
		return nil, err
	}
	m.Feed(inputs...)
	s = r.t.begin(spanRun, parent, item)
	res := m.Run()
	r.t.end(s)
	s = r.t.begin(spanRelease, parent, item)
	m.Release()
	r.t.end(s)
	if measure {
		runtime.ReadMemStats(&ms)
		r.allocs += int64(ms.Mallocs)
		r.allocBytes += int64(ms.TotalAlloc)
		r.allocRuns++
		r.allocWindow--
		if r.allocWindow == 0 {
			r.restoreGC()
			return res, errWindowClosed
		}
	}
	r.runs++
	r.instructions += res.Stats.Instructions
	r.checks += res.Stats.ChecksExecuted
	r.mallocs += res.Stats.Mallocs
	r.frees += res.Stats.Frees
	return res, nil
}

// restoreGC re-enables the collector once an allocation window closes or
// its replay fails.
func (r *replay) restoreGC() {
	if r.allocRuns > 0 {
		debug.SetGCPercent(r.gcPercent)
	}
}

// singleCPU runs fn with GOMAXPROCS 1, so a replay's allocation counts do
// not depend on which processor a pooled object was parked on.
func singleCPU(fn func() error) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// pairTime is how long tracedPass keeps alternating untraced and traced
// replays.
const pairTime = 10 * time.Second

// tracedPass runs a workload's replay on one processor: an allocation
// replay over the first allocWindow executions, then the full replay
// untraced and traced, in pairs. It records the per-layer metrics every
// workload shares. pass builds fresh engines each time, so every replay
// starts from an empty cache.
func tracedPass(l *ledger, pass func(r *replay) (int64, error), allocWindow int) (map[string]*spanSummary, error) {
	var byName map[string]*spanSummary
	err := singleCPU(func() error {
		// Two collections empty every sync.Pool, so the allocation window
		// does not depend on what earlier measurements left pooled.
		runtime.GC()
		runtime.GC()
		alloc := newAllocReplay(allocWindow)
		if _, err := pass(alloc); !errors.Is(err, errWindowClosed) {
			alloc.restoreGC()
			if err == nil {
				err = fmt.Errorf("replay ended after %d of %d measured executions", alloc.allocRuns, allocWindow)
			}
			return err
		}

		// Untraced and traced replays alternate in pairs for at least
		// pairTime; the overhead is the median of the pairs' ratios.
		var plain, traced *replay
		var n int64
		var ratios []float64
		for start := time.Now(); len(ratios) == 0 || time.Since(start) < pairTime; {
			plain = newReplay(false)
			t0 := time.Now()
			if _, err := pass(plain); err != nil {
				return err
			}
			plainNS := time.Since(t0)
			traced = newReplay(true)
			t0 = time.Now()
			var err error
			if n, err = pass(traced); err != nil {
				return err
			}
			ratios = append(ratios, time.Since(t0).Seconds()/plainNS.Seconds())
			l.check(plain.runs == traced.runs && plain.instructions == traced.instructions && plain.checks == traced.checks,
				"traced replay diverged from the untraced one: runs %d/%d instructions %d/%d",
				plain.runs, traced.runs, plain.instructions, traced.instructions)
		}

		var self map[string]int64
		var total int64
		byName, self, total = traced.t.summarize()
		mean := func(name string) float64 {
			if s := byName[name]; s != nil {
				return s.MeanUS
			}
			return 0
		}
		lookupUS := mean("engine.Instrument")
		l.set("obs.trace_overhead_pct", 100*(median(ratios)-1), "%")
		l.set("engine.lookup_ns", lookupUS*1e3, "ns")
		l.set("engine.instrument_us", mean("instrument.Apply"), "us")
		l.set("engine.acquire_us", mean("engine.NewMachine")-lookupUS, "us")
		l.set("engine.reset_us", mean("engine.Release"), "us")
		l.set("interp.run_us", mean("interp.Run"), "us")
		runNS := byName["interp.Run"].TotalMS * 1e6
		l.set("interp.ns_per_instr", runNS/float64(traced.instructions), "ns")
		l.set("interp.instructions", float64(plain.instructions)/float64(plain.runs), "count")
		l.set("san.checks", float64(plain.checks)/float64(plain.runs), "count")
		l.set("san.mallocs", float64(plain.mallocs)/float64(plain.runs), "count")
		l.set("san.frees", float64(plain.frees)/float64(plain.runs), "count")
		l.set("engine.allocs_per_run", float64(alloc.allocs)/float64(alloc.allocRuns), "count")
		l.set("engine.bytes_per_run", float64(alloc.allocBytes)/float64(alloc.allocRuns), "B")
		l.set("gen.item_us", float64(self[layerGen])/1e3/float64(n), "us")
		for _, layer := range layers {
			l.set("self_pct."+layer, 100*float64(self[layer])/float64(total), "%")
		}
		l.notes["spans"] = byName
		l.notes["span_sample"] = spanSample(traced.t, 20000)
		l.notes["replay_items"] = n
		l.notes["replay_runs"] = traced.runs
		l.notes["replay_pairs"] = len(ratios)
		l.notes["alloc_window_runs"] = alloc.allocRuns
		return nil
	})
	return byName, err
}

// spanSample returns the first n spans in a form the ledger file can hold.
func spanSample(t *tracer, n int) []map[string]any {
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]map[string]any, n)
	for i, s := range t.spans[:n] {
		out[i] = map[string]any{"name": spanKinds[s.kind].name, "layer": spanKinds[s.kind].layer,
			"item": s.item, "parent": s.parent, "start_ns": s.start, "end_ns": s.end}
	}
	return out
}

// cpuMeter reads the runtime's CPU-time classes, to report the share of
// used CPU the garbage collector took over a measurement.
type cpuMeter struct{ samples []metrics.Sample }

func newCPUMeter() *cpuMeter {
	return &cpuMeter{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}}
}

// read returns (gc, used) CPU seconds so far.
func (c *cpuMeter) read() (gc, used float64) {
	metrics.Read(c.samples)
	v := func(i int) float64 { return c.samples[i].Value.Float64() }
	return v(0), v(1) - v(2)
}

// gcShare measures fn and records go.gc_cpu_share.
func gcShare(l *ledger, fn func() error) error {
	m := newCPUMeter()
	runtime.GC() // the CPU classes are brought up to date at each GC
	gc0, used0 := m.read()
	if err := fn(); err != nil {
		return err
	}
	runtime.GC()
	gc1, used1 := m.read()
	if used1 > used0 {
		l.set("go.gc_cpu_share", (gc1-gc0)/(used1-used0), "fraction")
	}
	return nil
}

// heapLiveMB returns the Go heap in use after two forced collections:
// the second frees what sync.Pool caches parked in the first, so the
// figure does not depend on when the last collection happened to run.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
