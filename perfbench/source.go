package main

import (
	"fmt"
	"sync"

	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vectorgen"
)

// tracedSource is the benchmark's own evt.BatchSource: it does what
// vectorgen.StreamSource does — vectorgen.GeneratePacked into one packed
// batch, then power.Evaluator.PackedStripeMW stripe by stripe over
// Workers evaluator clones — but from outside the program, so each call
// gets a span. Traced, it also runs a benchmark-owned sim.Speculative
// over every stripe before the evaluator does: that span is the sim
// layer's time, and PackedStripeMW minus it is the power fold's. The
// extra simulation is part of the tracing overhead. Untraced (nil
// tracer), it skips that extra run and must agree bit for bit with
// vectorgen.StreamSource.
type tracedSource struct {
	gen   vectorgen.Generator
	evals []*power.Evaluator
	specs []*sim.Speculative // one per evaluator; traced mode only
	lanes int                // stripe capacity in lanes
	pp    sim.PackedPairs
	tr    *tracer
	run   int32
	err   error // first stripe evaluation error; a failed check

	pairs, stripes uint64
}

// newTracedSource clones ev into workers evaluators. ev must have the
// speculative kernel enabled (maxpower's library default); its compiled
// program is resolved first so that the benchmark-owned Speculative
// executors run a program of the same stripe width.
func newTracedSource(ev *power.Evaluator, model delay.Model, gen vectorgen.Generator, workers int, tr *tracer) *tracedSource {
	s := &tracedSource{gen: gen, tr: tr}
	w := ev.StripeWords() // compiles through the evaluator's kernel cache
	s.lanes = 64 * w
	for i := 0; i < workers; i++ {
		s.evals = append(s.evals, ev.Clone())
	}
	if tr != nil {
		c := ev.Circuit()
		prog := sim.Compile(c, sim.New(c, model).DelaysPS(), sim.CompileOptions{ZeroDelay: ev.ZeroDelay(), Width: w})
		for range s.evals {
			sp := sim.NewSpeculative(prog)
			sp.LaneStats = false // as power.Evaluator runs it
			s.specs = append(s.specs, sp)
		}
	}
	return s
}

// Size implements evt.Source: the stream is an infinite population.
func (s *tracedSource) Size() int { return 0 }

// SamplePower implements evt.Source through a one-unit batch.
func (s *tracedSource) SamplePower(rng *stats.RNG) float64 {
	var p [1]float64
	s.SampleBatch(rng, p[:])
	return p[0]
}

// SampleBatch implements evt.BatchSource.
func (s *tracedSource) SampleBatch(rng *stats.RNG, dst []float64) {
	sb := s.tr.begin("vectorgen.SampleBatch", s.tr.current(), s.run)
	s.pp.Reset(s.gen.Inputs(), len(dst))
	g := s.tr.begin("vectorgen.GeneratePacked", sb, s.run)
	vectorgen.GeneratePacked(s.gen, rng, &s.pp)
	s.tr.end(g)
	s.evaluate(dst, sb)
	s.tr.end(sb)
}

// build generates and evaluates a whole population the way
// vectorgen.Build does (one RNG, pairs in order, then the stripes), so
// its powers must equal the library population's bit for bit.
func (s *tracedSource) build(size int, seed uint64) []float64 {
	b := s.tr.begin("vectorgen.Build", 0, s.run)
	s.pp.Reset(s.gen.Inputs(), size)
	g := s.tr.begin("vectorgen.GeneratePacked", b, s.run)
	vectorgen.GeneratePacked(s.gen, stats.NewRNG(seed), &s.pp)
	s.tr.end(g)
	powers := make([]float64, size)
	s.evaluate(powers, b)
	s.tr.end(b)
	return powers
}

// evaluate splits the packed batch into stripes, whole stripes per
// worker, as vectorgen's engine does.
func (s *tracedSource) evaluate(dst []float64, parent int32) {
	n := (s.pp.N + s.lanes - 1) / s.lanes
	s.pairs += uint64(s.pp.N)
	s.stripes += uint64(n)
	workers := len(s.evals)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		s.stripeRange(0, 0, n, dst, parent)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = s.stripeRangeErr(w, lo, hi, dst, parent)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && s.err == nil {
			s.err = err
		}
	}
}

func (s *tracedSource) stripeRange(w, lo, hi int, dst []float64, parent int32) {
	if err := s.stripeRangeErr(w, lo, hi, dst, parent); err != nil && s.err == nil {
		s.err = err
	}
}

func (s *tracedSource) stripeRangeErr(w, lo, hi int, dst []float64, parent int32) error {
	for i := lo; i < hi; i++ {
		b0 := i * s.lanes
		end := b0 + s.lanes
		if end > s.pp.N {
			end = s.pp.N
		}
		if s.specs != nil {
			sp := s.tr.begin("sim.Speculative.Run", parent, s.run)
			s.specs[w].Run(&s.pp, i)
			s.tr.end(sp)
		}
		pw := s.tr.begin("power.Evaluator.PackedStripeMW", parent, s.run)
		err := s.evals[w].PackedStripeMW(&s.pp, i, dst[b0:end])
		s.tr.end(pw)
		if err != nil {
			return fmt.Errorf("stripe %d: %w", i, err)
		}
	}
	return nil
}

// specStats sums the benchmark-owned executors' counters.
func (s *tracedSource) specStats() sim.SpecStats {
	var agg sim.SpecStats
	for _, sp := range s.specs {
		agg.Add(sp.Stats())
	}
	return agg
}
