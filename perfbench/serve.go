package main

import (
	"slices"
	"time"

	"cecsan/internal/engine"
	"cecsan/internal/obs"
	"cecsan/internal/sanitizers"
	"cecsan/internal/traffic"
)

const (
	// servePath is the traffic mix: 60% interactive CECSan requests under
	// poisson arrivals, 40% bursty CECSan-hardened batch requests.
	servePath        = "examples/workloads/interactive-batch.yaml"
	defaultServeSeed = 42
	serveWorkers     = 2
	// closedN is a multiple of 256, so Serve's progress callback fires on
	// the final request, when the heap is read.
	closedN = 25600
	// openN at the open-loop rate gives each class more than 15k latency
	// samples after shedding.
	openN       = 70000
	openSpeedup = 5 // x the spec's 2,000 req/s = 10,000 req/s offered
)

// runServe measures traffic.Serve on the interactive/batch mix, with the
// flight recorder at default sampling as the serve smoke runs it. The
// untraced measurement repeats a closed loop (capacity). The traced run
// adds an open loop at a fixed offered rate with the default queue depth
// on the same stream, the flight recorder's price and the serve path's
// own request traces.
func runServe(l *ledger, seed int64, secs float64, traced bool) error {
	if seed < 0 {
		seed = defaultServeSeed
	}
	spec, err := serveUntraced(l, uint64(seed), secs)
	if err != nil {
		return err
	}
	if !traced {
		return nil
	}
	if err := serveOpen(l, spec, uint64(seed)); err != nil {
		return err
	}
	if err := serveFlight(l, spec, uint64(seed)); err != nil {
		return err
	}
	_, err = tracedPass(l, func(r *replay) (int64, error) { return serveReplay(l, r, spec, uint64(seed), nil) }, 2000)
	return err
}

func defaultFlight() *obs.FlightRecorder {
	return obs.NewFlightRecorder(obs.FlightConfig{SampleN: obs.DefaultFlightSampleN})
}

// streamRef is what the benchmark's own walk over a stream records.
type streamRef struct {
	digest      string
	lastArrival time.Duration
	nextNS      float64 // mean Stream.Next time
}

// walkStream generates n requests of the stream Serve will see.
func walkStream(spec *traffic.Spec, seed uint64, n int) (streamRef, error) {
	st, err := traffic.NewStream(spec, seed)
	if err != nil {
		return streamRef{}, err
	}
	st.SetLimit(n)
	var ref streamRef
	t0 := time.Now()
	for req := st.Next(); req != nil; req = st.Next() {
		ref.lastArrival = req.Arrival
	}
	ref.nextNS = float64(time.Since(t0).Nanoseconds()) / float64(n)
	ref.digest = st.Digest()
	return ref, nil
}

// checkServe applies the output checks to one Serve result: the stream
// digest, and both accounting identities per class and in total.
func checkServe(l *ledger, res *traffic.ServeResult, want, phase string) {
	l.check(res.StreamDigest == want, "serve %s: stream digest %s, expected %s", phase, res.StreamDigest, want)
	ident := func(who string, gen, adm, shed, shedB, shedD, done, faults, rej, aband int64) {
		l.check(gen == adm+shed+shedB, "serve %s %s: generated %d != admitted %d + shed %d + shed_bucket %d", phase, who, gen, adm, shed, shedB)
		l.check(adm == done+faults+rej+shedD+aband,
			"serve %s %s: admitted %d != completed %d + faults %d + breaker_rejected %d + shed_delay %d + abandoned %d",
			phase, who, adm, done, faults, rej, shedD, aband)
	}
	ident("total", res.Generated, res.Admitted, res.Shed, res.ShedBucket, res.ShedDelay, res.Completed, res.Faults, res.BreakerRejected, res.Abandoned)
	for _, c := range res.Classes {
		ident(c.Class, c.Generated, c.Admitted, c.Shed, c.ShedBucket, c.ShedDelay, c.Completed, c.Faults, c.BreakerRejected, c.Abandoned)
	}
	l.attempted += res.Generated
	l.failed += res.Faults
	l.check(res.Faults == 0, "serve %s: %d faults", phase, res.Faults)
}

// outcome is what one class's requests did: runs, sanitizer checks
// executed and violations detected, all exact.
type outcome struct{ Runs, Checks, Detected int64 }

// checkOutcomes compares what a closed loop's requests did with the
// benchmark's own one-worker walk over the same stream. The closed loop
// sheds nothing, so every request completes, executes the same checks
// (read from the engines' engine_run_checks histograms) and detects as it
// does there. Deadline misses, and with them Good, depend on the wall
// clock and are not compared.
func checkOutcomes(l *ledger, res *traffic.ServeResult, o *obs.Observer, spec *traffic.Spec, want []outcome) {
	for i, c := range res.Classes {
		h := o.Registry.Histogram("engine_run_checks", obs.L("tool", spec.Clients[i].Tool))
		got := outcome{Runs: c.Completed, Checks: h.Sum(), Detected: c.Detected}
		l.check(c.Class == spec.Clients[i].ID && got == want[i] && h.Count() == c.Completed,
			"serve closed: class %s did %+v (%d runs checked), the walk %+v", c.Class, got, h.Count(), want[i])
	}
}

func serveUntraced(l *ledger, seed uint64, secs float64) (*traffic.Spec, error) {
	// Set-up, measured through Serve itself: load the spec, then a one-
	// request campaign (stream and variant compile, engines, prefill).
	var spec *traffic.Spec
	setup, err := newSetupTimer(5, func() error {
		sp, err := traffic.Load(servePath)
		if err != nil {
			return err
		}
		spec = sp
		_, err = traffic.Serve(traffic.ServeConfig{Spec: sp, Seed: seed, Workers: serveWorkers, MaxRequests: 1,
			Obs: obs.New(), Flight: defaultFlight()})
		return err
	})
	if err != nil {
		return nil, err
	}
	ref, err := walkStream(spec, seed, closedN)
	if err != nil {
		return nil, err
	}
	if want, ok := serveDigests[seed]; ok {
		l.check(ref.digest == want[0], "serve: seed %d stream digest %s, reference %s", seed, ref.digest, want[0])
	}
	walk := make([]outcome, len(spec.Clients))
	if _, err := serveReplay(l, newReplay(false), spec, seed, walk); err != nil {
		return nil, err
	}
	if want, ok := serveOutcomes[seed]; ok {
		l.check(slices.Equal(walk, want), "serve: seed %d walk outcomes %+v per class, reference %+v", seed, walk, want)
	}
	l.notes["outcomes"] = walk

	var heapMB, hookS float64
	progress := func(done int) {
		if done == closedN {
			t0 := time.Now()
			heapMB = heapLiveMB()
			hookS = time.Since(t0).Seconds()
		}
	}
	var ops, opsRef, heaps, hitRate []float64
	speed := newSpeedometer()
	speed.sample()
	err = gcShare(l, func() error {
		return loop(seconds(secs), 5, func(int) error {
			if err := setup.sample(); err != nil {
				return err
			}
			hookS = 0
			o := obs.New()
			res, err := traffic.Serve(traffic.ServeConfig{Spec: spec, Seed: seed, Workers: serveWorkers,
				MaxRequests: closedN, Obs: o, Flight: defaultFlight(), Progress: progress})
			if err != nil {
				return err
			}
			checkServe(l, res, ref.digest, "closed")
			checkOutcomes(l, res, o, spec, walk)
			rate := float64(res.Completed) / (res.Elapsed.Seconds() - hookS)
			speed.sample()
			ops = append(ops, rate)
			opsRef = append(opsRef, rate/speed.refScale())
			heaps = append(heaps, heapMB)
			hitRate = append(hitRate, res.CacheHitRate)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	l.notes["setup_s_samples"] = setup.samples
	l.set("setup_s", median(setup.samples), "s")
	setThroughput(l, ops, opsRef, speed)
	l.set("heap_live_mb", median(heaps), "MB")
	l.set("engine.cache_hit_rate", median(hitRate), "fraction")
	l.set("traffic.gen_ns", ref.nextNS, "ns")
	l.set("serve.passes", float64(len(ops)), "count")
	return spec, nil
}

// serveOpen is the open loop at the fixed offered rate with the default
// queue depth: latency per class, shedding and generator lag.
func serveOpen(l *ledger, spec *traffic.Spec, seed uint64) error {
	ref, err := walkStream(spec, seed, openN)
	if err != nil {
		return err
	}
	if want, ok := serveDigests[seed]; ok {
		l.check(ref.digest == want[1], "serve: seed %d open-loop stream digest %s, reference %s", seed, ref.digest, want[1])
	}
	res, err := traffic.Serve(traffic.ServeConfig{Spec: spec, Seed: seed, Workers: serveWorkers,
		MaxRequests: openN, Speedup: openSpeedup, Flight: defaultFlight()})
	if err != nil {
		return err
	}
	checkServe(l, res, ref.digest, "open")
	gen := float64(res.Generated)
	for _, c := range res.Classes {
		l.set("p50_us."+c.Class, float64(c.P50us), "us")
		l.set("p99_us."+c.Class, float64(c.P99us), "us")
		l.set("samples."+c.Class, float64(c.Completed), "count")
	}
	l.set("failed_share", float64(res.Generated-res.Good)/gen, "fraction")
	l.set("traffic.shed_share", float64(res.Shed+res.ShedBucket)/gen, "fraction")
	l.set("traffic.lag_ms", (res.Elapsed-ref.lastArrival/openSpeedup).Seconds()*1e3, "ms")
	return nil
}

// serveFlight prices the flight recorder and reads the serve path's own
// request traces from an open loop with the recorder keeping every trace.
func serveFlight(l *ledger, spec *traffic.Spec, seed uint64) error {
	// Closed loops with the recorder off and at default sampling alternate,
	// so both see the same machine.
	var off, on []float64
	for i := 0; i < 10; i++ {
		for _, flight := range []*obs.FlightRecorder{nil, defaultFlight()} {
			res, err := traffic.Serve(traffic.ServeConfig{Spec: spec, Seed: seed, Workers: serveWorkers, MaxRequests: closedN, Flight: flight})
			if err != nil {
				return err
			}
			ops := float64(res.Completed) / res.Elapsed.Seconds()
			if flight == nil {
				off = append(off, ops)
			} else {
				on = append(on, ops)
			}
		}
	}
	l.set("obs.flight_cost_pct", 100*(median(off)/median(on)-1), "%")

	// A healthy trace lands in the sampled ring, which holds a quarter of
	// the budget.
	rec := obs.NewFlightRecorder(obs.FlightConfig{Budget: 4 * openN, SampleN: 1})
	res, err := traffic.Serve(traffic.ServeConfig{Spec: spec, Seed: seed, Workers: serveWorkers,
		MaxRequests: openN, Speedup: openSpeedup, Flight: rec})
	if err != nil {
		return err
	}
	recs := rec.Records()
	l.check(int64(len(recs)) == res.Generated, "serve: flight recorder kept %d of %d traces", len(recs), res.Generated)
	var wait, exec []float64
	var admitUS float64
	for _, tr := range recs {
		for _, ev := range tr.Events {
			switch ev.Kind {
			case "admit":
				admitUS += float64(ev.AtUS)
			case "dequeue":
				wait = append(wait, float64(ev.DurUS))
			case "execute":
				exec = append(exec, float64(ev.DurUS))
			}
		}
	}
	l.set("traffic.queue_wait_us.p50", quantile(wait, 0.50), "us")
	l.set("traffic.queue_wait_us.p99", quantile(wait, 0.99), "us")
	l.set("traffic.admit_us", admitUS/float64(len(recs)), "us")
	l.set("serve.execute_us.p50", quantile(exec, 0.50), "us")
	l.set("serve.execute_us.p99", quantile(exec, 0.99), "us")
	l.set("serve.traced_samples", float64(len(wait)), "count")
	return nil
}

// serveReplay is the closed loop's per-request sequence on one worker:
// the stream (variant generation and compile, then Stream.Next per
// request) and each request's run on its class engine, configured as
// Serve configures it. When out is not nil it sums each class's outcomes.
func serveReplay(l *ledger, r *replay, spec *traffic.Spec, seed uint64, out []outcome) (int64, error) {
	s := r.t.begin(spanNewStream, -1, 0)
	st, err := traffic.NewStream(spec, seed)
	r.t.end(s)
	if err != nil {
		return 0, err
	}
	st.SetLimit(closedN)
	eff := seed
	if eff == 0 {
		eff = spec.Seed
	}
	cache := engine.NewCache(0)
	engines := make([]*engine.Engine, len(spec.Clients))
	for i := range spec.Clients {
		c := &spec.Clients[i]
		eng, err := engine.New(sanitizers.Name(c.Tool), engine.Options{
			Workers:         1,
			MaxInstructions: c.Budget.MaxSteps,
			WallBudget:      time.Duration(c.Budget.WallMS * float64(time.Millisecond)),
			HeapBudget:      c.Budget.HeapBytes,
			Seed:            eff,
			RuntimeSeed:     eff,
			Cache:           cache,
		})
		if err != nil {
			return 0, err
		}
		engines[i] = eng
		for j, v := range st.Variants(i) {
			root := r.t.begin(spanPrefill, -1, int64(j))
			r.instrument(eng, v.Program, root, int64(j))
			r.t.end(root)
		}
	}
	var n int64
	for {
		root := r.t.begin(spanCase, -1, n)
		s := r.t.begin(spanStreamNext, root, n)
		req := st.Next()
		r.t.end(s)
		if req == nil {
			r.t.end(root)
			break
		}
		res, err := r.execute(engines[req.ClassIndex], req.Program, req.Inputs, root, n)
		r.t.end(root)
		if err != nil {
			return 0, err
		}
		l.check(res.Err == nil, "serve replay: request %d: %v", n, res.Err)
		if out != nil {
			o := &out[req.ClassIndex]
			o.Runs++
			o.Checks += res.Stats.ChecksExecuted
			if res.Violation != nil {
				o.Detected++
			}
		}
		n++
	}
	if want, ok := serveDigests[seed]; ok {
		l.check(st.Digest() == want[0], "serve replay: stream digest %s, reference %s", st.Digest(), want[0])
	}
	return n, nil
}
