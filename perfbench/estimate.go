package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/vectorgen"
	"repro/maxpower"
)

// closedRig is one set-up of a closed-loop estimator workload.
type closedRig struct {
	// table names the stored digests of this workload's results.
	table string
	// call is the timed request: one estimation through the public API.
	call func(seed uint64) (evt.Result, error)
	// traced builds an estimator over benchmark-side sources that span
	// every layer call; setRun labels the spans of the next run.
	traced func(tr *tracer) (est *evt.Estimator, src *tracedSource, setRun func(int32))
	// truth is the exhaustive maximum the estimates are scored against.
	truth func() (float64, error)
	// extraCheck runs the workload's own cross-checks against the
	// library, traced when tr is non-nil; seeds are the first window
	// seeds and want their untraced results. It returns the traced source
	// of any simulation it ran.
	extraCheck func(tr *tracer, seeds []uint64, want []evt.Result) (*tracedSource, error)
	compileNS  int64
	buildMS    float64
	// perBuild reports sim counters per population build instead of per
	// estimation (the timed loop simulates nothing).
	perBuild bool
	// serviceLayers makes the traced run also measure the service layers
	// on the service-mix traffic (see traceServiceLayers).
	serviceLayers bool
}

// setupStream builds the stream-c3540-fanout rig: the library's
// speculative evaluator behind one vectorgen.StreamSource and one
// estimator with paper defaults.
func setupStream(workers int) (*closedRig, error) {
	c, err := maxpower.Circuit("C3540")
	if err != nil {
		return nil, err
	}
	model := delay.FanoutLoaded{}
	kc := maxpower.NewKernelCache(4)
	ev := power.NewEvaluator(c, model, power.Params{})
	ev.UseSpeculative(kc, c.Name+"/"+model.Name())
	ev.StripeWords() // compile in set-up, not in the first timed run
	gen := vectorgen.HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	src, err := vectorgen.NewStreamSource(ev, gen)
	if err != nil {
		return nil, err
	}
	src.Workers = workers
	est, err := evt.New(src, evt.Config{})
	if err != nil {
		return nil, err
	}
	spec := maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, DelayModel: "fanout"}
	return &closedRig{
		table: "stream-c3540-fanout",
		call: func(seed uint64) (evt.Result, error) {
			return est.Run(stats.NewRNG(seed)), nil
		},
		traced: func(tr *tracer) (*evt.Estimator, *tracedSource, func(int32)) {
			ts := newTracedSource(ev, model, gen, workers, tr)
			e, _ := evt.New(ts, evt.Config{}) // same config as est, already validated
			return e, ts, func(run int32) { ts.run = run }
		},
		truth: func() (float64, error) {
			ref := spec
			ref.Size, ref.Seed, ref.Workers = refSize, refSeed, workers
			pop, err := maxpower.BuildPopulationKernels(c, ref, kc)
			if err != nil {
				return 0, err
			}
			return pop.TrueMax(), nil
		},
		extraCheck: func(_ *tracer, seeds []uint64, want []evt.Result) (*tracedSource, error) {
			// The public streaming entry point must agree with the
			// estimator-on-StreamSource the workload times.
			for i, seed := range seeds[:2] {
				got, err := maxpower.EstimateStreaming(c, spec, maxpower.EstimateOptions{Seed: seed, Workers: workers, Kernels: kc})
				if err != nil {
					return nil, err
				}
				if digest(got) != digest(want[i]) {
					return nil, fmt.Errorf("maxpower.EstimateStreaming seed %d differs from evt.Estimator.Run", seed)
				}
			}
			return nil, nil
		},
		compileNS: kc.Stats().CompileNS,
	}, nil
}

// c432Spec is the finite population of finite-c432-fanout, also the
// cached population of the service-mix population jobs.
func c432Spec(workers int) maxpower.PopulationSpec {
	return maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, Size: popSize, Seed: popSeed, DelayModel: "fanout", Workers: workers}
}

// setupFinite builds the finite-c432-fanout rig: one 20,000-pair
// population, estimated with maxpower.Estimate.
func setupFinite(workers int) (*closedRig, error) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		return nil, err
	}
	kc := maxpower.NewKernelCache(4)
	start := time.Now()
	pop, err := maxpower.BuildPopulationKernels(c, c432Spec(workers), kc)
	if err != nil {
		return nil, err
	}
	buildMS := float64(time.Since(start)) / 1e6
	return &closedRig{
		table: "pop-c432-fanout",
		call: func(seed uint64) (evt.Result, error) {
			return maxpower.Estimate(pop, maxpower.EstimateOptions{Seed: seed})
		},
		traced: func(tr *tracer) (*evt.Estimator, *tracedSource, func(int32)) {
			sp := &spannedPop{Population: pop, tr: tr}
			e, _ := evt.New(sp, evt.Config{}) // paper defaults, as maxpower.Estimate
			return e, nil, func(run int32) { sp.run = run }
		},
		truth: func() (float64, error) { return pop.TrueMax(), nil },
		extraCheck: func(tr *tracer, _ []uint64, _ []evt.Result) (*tracedSource, error) {
			// Rebuild the population through the benchmark-side source: the
			// only simulation this workload does, traced in the traced run.
			model := delay.FanoutLoaded{}
			ev := power.NewEvaluator(c, model, power.Params{})
			ev.UseSpeculative(kc, c.Name+"/"+model.Name())
			ts := newTracedSource(ev, model, vectorgen.HighActivity{N: c.NumInputs(), MinActivity: 0.3}, workers, tr)
			powers := ts.build(popSize, popSeed)
			if ts.err != nil {
				return ts, ts.err
			}
			for i, p := range pop.Powers() {
				if math.Float64bits(p) != math.Float64bits(powers[i]) {
					return ts, fmt.Errorf("traced population build differs from maxpower.BuildPopulation at pair %d", i)
				}
			}
			return ts, nil
		},
		compileNS:     kc.Stats().CompileNS,
		buildMS:       buildMS,
		perBuild:      true,
		serviceLayers: true,
	}, nil
}

// spannedPop is a finite population whose batch draws are spanned.
type spannedPop struct {
	*vectorgen.Population
	tr  *tracer
	run int32
}

// SampleBatch implements evt.BatchSource.
func (s *spannedPop) SampleBatch(rng *stats.RNG, dst []float64) {
	sb := s.tr.begin("vectorgen.SampleBatch", s.tr.current(), s.run)
	s.Population.SampleBatch(rng, dst)
	s.tr.end(sb)
}

// runCounts accumulates what a traced pass observed.
type runCounts struct {
	runs, hypers, attempts, fallbacks, units int
}

// tracedRuns drives the estimator through its public per-hyper-sample
// entry point: HyperSample, then FoldRecords over the records so far,
// until the stopping rule converges — which reproduces Run's statistical
// result bit for bit.
func tracedRuns(tr *tracer, est *evt.Estimator, setRun func(int32), seeds []uint64, runBase int32) ([]evt.Result, runCounts) {
	cfg := est.Config()
	out := make([]evt.Result, len(seeds))
	var rc runCounts
	for i, seed := range seeds {
		run := runBase + int32(i) + 1
		setRun(run)
		root, prev := tr.push("evt.run", run)
		rng := stats.NewRNG(seed)
		recs := make([]evt.HyperRecord, 0, 8)
		var res evt.Result
		for k := 0; k < cfg.MaxHyperSamples; k++ {
			h, hp := tr.push("evt.Estimator.HyperSample", run)
			hs := est.HyperSample(rng)
			tr.pop(h, hp)
			rc.hypers++
			rc.attempts += hs.Retries + 1
			if hs.FallbackMax {
				rc.fallbacks++
			}
			recs = append(recs, hs.Record())
			f := tr.begin("evt.FoldRecords", root, run)
			res = evt.FoldRecords(cfg, recs)
			tr.end(f)
			if res.Converged {
				break
			}
		}
		tr.pop(root, prev)
		rc.runs++
		rc.units += res.Units
		out[i] = res
	}
	return out, rc
}

// checkResult rejects results no correct estimator can return.
func checkResult(r evt.Result) error {
	if math.IsNaN(r.Estimate) || math.IsInf(r.Estimate, 0) || r.Estimate <= 0 {
		return fmt.Errorf("estimate %v", r.Estimate)
	}
	if r.HyperSamples < 2 || r.Units <= 0 {
		return fmt.Errorf("%d hyper-samples, %d units", r.HyperSamples, r.Units)
	}
	return nil
}

// runClosed runs a closed-loop estimator workload.
func runClosed(o options, setup func(workers int) (*closedRig, error)) (*report, error) {
	rep := newReport(o)
	var setups []time.Duration
	var rig *closedRig
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts on a quiet heap, as at process start
		start := time.Now()
		r, err := setup(o.workers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// Set-up ends with one warm-up request, so lazily built state
		// (executor arenas, scratch buffers) counts as set-up, not as the
		// first timed request.
		if _, err := r.call(warmSeed); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		rig = r
	}
	stored, err := loadDigests(rig.table)
	if err != nil {
		return nil, err
	}
	pool := poolSeeds()
	win := window(o.seed)
	seeds := make([]uint64, len(win))
	for i, j := range win {
		seeds[i] = pool[j]
	}

	first := make([]evt.Result, len(seeds))
	checkOp := func(i int, r evt.Result, err error) bool {
		if err == nil {
			err = checkResult(r)
		}
		switch {
		case err != nil:
			rep.fail("seed %d: %v", seeds[i], err)
		case !stored.match(win[i], r):
			rep.fail("seed %d (pool %d): digest %s, stored %s", seeds[i], win[i], digest(r), stored.get(win[i]))
		default:
			return true
		}
		return false
	}

	if o.trace {
		rep.traceClosed(o, rig, seeds, first, checkOp)
		return rep, nil
	}

	var lat, job dist
	units := 0
	start := time.Now()
	due := start
	for n := 0; n < len(seeds) || n < minRequests || time.Since(start) < o.duration; n++ {
		i := n % len(seeds)
		t0 := time.Now()
		r, err := rig.call(seeds[i])
		t1 := time.Now()
		lat = append(lat, t1.Sub(t0))
		rep.attempted++
		if checkOp(i, r, err) {
			if n < len(seeds) {
				first[i] = r
			} else if digest(r) != digest(first[i]) {
				rep.fail("seed %d: repeat differs from its first run", seeds[i])
			}
			job = append(job, t1.Sub(due))
			units += r.Units
		}
		due = t1
	}
	elapsed := time.Since(start).Seconds()
	rep.set("peak_rss_mb", peakRSSMB())
	rep.timings(lat, job, rep.attempted, sloLimitMS[o.workload])
	rep.set("est_per_s", float64(len(job))/elapsed)
	rep.set("jobs_per_s", float64(len(job))/elapsed)
	rep.set("units_per_s", float64(units)/elapsed)
	rep.set("setup_s", medianDur(setups).Seconds())

	// Cross-checks on the first seeds: the HyperSample+FoldRecords path
	// over the benchmark-side source, and the workload's own agreement
	// checks against the library.
	const k = 8
	est, src, setRun := rig.traced(nil)
	got, _ := tracedRuns(nil, est, setRun, seeds[:k], 0)
	for i := range got {
		if digest(got[i]) != digest(first[i]) {
			rep.fail("seed %d: HyperSample+FoldRecords path differs from the timed call", seeds[i])
		}
	}
	if src != nil && src.err != nil {
		rep.fail("traced source: %v", src.err)
	}
	if _, err := rig.extraCheck(nil, seeds[:k], first[:k]); err != nil {
		rep.fail("%v", err)
	}

	truth, err := rig.truth()
	if err != nil {
		return nil, fmt.Errorf("truth: %w", err)
	}
	var sum float64
	miss := 0
	for _, r := range first {
		e := relErr(r.Estimate, truth)
		sum += e
		if e > 0.05 {
			miss++
		}
	}
	rep.set("rel_err_mean_pct", 100*sum/float64(len(first)))
	rep.set("miss5_frac", float64(miss)/float64(len(first)))
	rep.linef("accuracy over %d distinct requests against an exhaustive maximum of %.6f mW", len(first), truth)
	return rep, nil
}

// warmSeed drives the untimed warm-up runs; it is not a pool entry, so
// warming up never pre-runs a measured request.
const warmSeed = 0xC0FFEE

// traceClosed is the traced run of a closed-loop workload: an untraced
// pass over the window, a quiesced allocation-counting pass, then the
// traced pass, which must reproduce the untraced results bit for bit.
func (rep *report) traceClosed(o options, rig *closedRig, seeds []uint64, first []evt.Result, checkOp func(int, evt.Result, error) bool) {
	start := time.Now()
	for i, seed := range seeds {
		r, err := rig.call(seed)
		rep.attempted++
		if checkOp(i, r, err) {
			first[i] = r
		}
	}
	untraced := time.Since(start)

	ac := startAllocCount()
	for _, seed := range seeds {
		_, _ = rig.call(seed) // results were checked in the untraced pass
	}
	bytes, objs := ac.stop()

	tr := newTracer()
	est, src, setRun := rig.traced(tr)
	start = time.Now()
	got, rc := tracedRuns(tr, est, setRun, seeds, 0)
	traced := time.Since(start)
	for i := range got {
		rep.attempted++
		if digest(got[i]) != digest(first[i]) {
			rep.fail("seed %d: traced run differs from the untraced run", seeds[i])
		}
	}
	buildSrc, err := rig.extraCheck(tr, seeds[:8], first[:8])
	if err != nil {
		rep.fail("%v", err)
	}
	if rig.perBuild {
		src = buildSrc
	}
	if src != nil && src.err != nil {
		rep.fail("traced source: %v", src.err)
	}

	if rig.serviceLayers {
		if err := rep.traceServiceLayers(o, tr); err != nil {
			rep.fail("%v", err)
		}
	} else {
		for _, name := range serviceLayer {
			rep.set(name, 0) // no daemon on this workload
		}
	}

	st := tr.stats()
	runs := float64(rc.runs)
	rep.estimatorLayers(st, rc, src, rig.perBuild)
	rep.set("evt.alloc_bytes_per_run", float64(bytes)/runs)
	rep.set("evt.allocs_per_run", float64(objs)/runs)
	rep.set("sim.compile_ms", float64(rig.compileNS)/1e6)
	rep.set("vectorgen.population_build_ms", rig.buildMS)
	rep.overhead(tr, traced, untraced)
}

// estimatorLayers sets the sim, power, vectorgen, weibull and evt layer
// metrics from a traced pass.
func (rep *report) estimatorLayers(st spanStats, rc runCounts, src *tracedSource, perBuild bool) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	per := func(name string) time.Duration {
		if st.count[name] == 0 {
			return 0
		}
		return st.total[name] / time.Duration(st.count[name])
	}
	const spec, stripe = "sim.Speculative.Run", "power.Evaluator.PackedStripeMW"
	rep.set("sim.spec_us_per_stripe", float64(per(spec))/1e3)
	if n := st.count[stripe]; n > 0 {
		rep.set("power.fold_us_per_stripe", float64(st.total[stripe]-st.total[spec])/float64(n)/1e3)
	} else {
		rep.set("power.fold_us_per_stripe", 0)
	}
	denom := float64(rc.runs)
	if perBuild {
		denom = 1
	}
	occ, stripes, patched, fb, genNS := 0.0, 0.0, 0.0, 0.0, 0.0
	if src != nil && src.stripes > 0 {
		ss := src.specStats()
		occ = float64(src.pairs) / float64(src.stripes*uint64(src.lanes))
		stripes = float64(src.stripes) / denom
		patched = float64(ss.PatchedWords) / denom
		if ss.Stripes > 0 {
			fb = float64(ss.Fallbacks) / float64(ss.Stripes)
		}
		genNS = float64(st.total["vectorgen.GeneratePacked"]) / float64(src.pairs)
	}
	rep.set("sim.lane_occupancy", occ)
	rep.set("sim.stripes", stripes)
	rep.set("sim.patched_words", patched)
	rep.set("sim.fallback_frac", fb)
	rep.set("vectorgen.generate_ns_per_pair", genNS)
	if rc.attempts > 0 {
		rep.set("weibull.fit_us_per_attempt", float64(st.self["evt.Estimator.HyperSample"])/float64(rc.attempts)/1e3)
		rep.set("weibull.attempts_per_hyper", float64(rc.attempts)/float64(rc.hypers))
	} else {
		rep.set("weibull.fit_us_per_attempt", 0)
		rep.set("weibull.attempts_per_hyper", 0)
	}
	runs := math.Max(float64(rc.runs), 1)
	rep.set("evt.fallback_max", float64(rc.fallbacks)/runs)
	rep.set("evt.hyper_samples_per_run", float64(rc.hypers)/runs)
	rep.set("evt.units_per_run", float64(rc.units)/runs)
	rep.set("evt.interval_us", float64(per("evt.FoldRecords"))/1e3)
	self := st.layerSelf()
	// PackedStripeMW runs its own simulation of the stripe, which the
	// separate Speculative.Run span already charged to sim.
	self["power"] -= st.total[spec]
	for _, l := range []string{"vectorgen", "sim", "power", "weibull", "evt", "service"} {
		rep.set(l+".self_ms", ms(self[l]))
	}
}

// overhead records the tracing cost and writes the spans out.
func (rep *report) overhead(tr *tracer, traced, untraced time.Duration) {
	rep.set("trace.spans", float64(len(tr.spans)))
	rep.set("trace.overhead_ms", float64(traced-untraced)/1e6)
	rep.set("trace.overhead_pct", 100*float64(traced-untraced)/float64(untraced))
	rep.linef("tracing overhead: traced %.1f ms - untraced %.1f ms = %.1f ms over the same inputs",
		float64(traced)/1e6, float64(untraced)/1e6, float64(traced-untraced)/1e6)
	path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", rep.workload, rep.seed))
	if err != nil {
		rep.fail("%v", err)
		return
	}
	rep.linef("spans: %d written to %s", len(tr.spans), path)
}
