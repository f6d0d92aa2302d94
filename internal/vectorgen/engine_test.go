package vectorgen

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestStreamSourceBatchMatchesScalar: for every delay model class (zero
// delay → bit-parallel lanes, timed → event-driven per pair) and several
// worker counts, SampleBatch must be bit-identical to the same number of
// sequential SamplePower calls under an equal RNG stream.
func TestStreamSourceBatchMatchesScalar(t *testing.T) {
	c := bench.MustGenerate("C432")
	for _, tc := range []struct {
		name  string
		model delay.Model
	}{
		{"zero", delay.Zero{}},
		{"fanout", delay.FanoutLoaded{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eval := power.NewEvaluator(c, tc.model, power.Params{})
			gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
			scalarSrc, err := NewStreamSource(eval, gen)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(17)
			want := make([]float64, 300)
			for i := range want {
				want[i] = scalarSrc.SamplePower(rng)
			}
			for _, workers := range []int{1, 3, 8} {
				src, err := NewStreamSource(eval, gen)
				if err != nil {
					t.Fatal(err)
				}
				src.Workers = workers
				got := make([]float64, 300)
				src.SampleBatch(stats.NewRNG(17), got)
				if err := src.BatchErr(); err != nil {
					t.Fatalf("workers=%d: batch error %v", workers, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: unit %d: batch %v != scalar %v",
							workers, i, got[i], want[i])
					}
				}
				if src.Simulated() != 300 {
					t.Errorf("workers=%d: simulated = %d, want 300", workers, src.Simulated())
				}
			}
		})
	}
}

// TestStreamSourceBatchReusesRNGLikeScalar interleaves batch and scalar
// draws on one RNG: the stream must stay aligned (the batch consumes
// exactly len(dst) draws' worth of randomness).
func TestStreamSourceBatchReusesRNGLikeScalar(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.Zero{}, power.Params{})
	gen := Uniform{N: c.NumInputs()}
	a, _ := NewStreamSource(eval, gen)
	b, _ := NewStreamSource(eval, gen)

	ra, rb := stats.NewRNG(5), stats.NewRNG(5)
	batch := make([]float64, 40)
	a.SampleBatch(ra, batch)
	for i := 0; i < 40; i++ {
		if p := b.SamplePower(rb); p != batch[i] {
			t.Fatalf("unit %d diverged", i)
		}
	}
	// Both RNGs must now be in the same state.
	if a.SamplePower(ra) != b.SamplePower(rb) {
		t.Fatal("RNG streams misaligned after a batch")
	}
}

// TestPopulationSampleBatchMatchesScalar checks the trivial index-draw
// batch on a finite population.
func TestPopulationSampleBatchMatchesScalar(t *testing.T) {
	powers := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	pop := FromPowers("p", powers)
	r1, r2 := stats.NewRNG(8), stats.NewRNG(8)
	batch := make([]float64, 100)
	pop.SampleBatch(r1, batch)
	for i := range batch {
		if p := pop.SamplePower(r2); p != batch[i] {
			t.Fatalf("draw %d: batch %v != scalar %v", i, batch[i], p)
		}
	}
}

// TestTimedDifferentialBatchVsScalarC880 is the scalar-vs-batch
// differential for the *timed* batch engine (the speculative kernel) on
// a non-trivial circuit and delay model
// (C880, fanout-loaded), driven through StreamSource and run multi-worker
// so the CI -race step exercises the kernel's per-clone state through
// concurrently running worker evaluators sharing one program.
func TestTimedDifferentialBatchVsScalarC880(t *testing.T) {
	c := bench.MustGenerate("C880")
	eval := power.NewEvaluator(c, delay.FanoutLoaded{}, power.Params{})
	gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	scalarSrc, err := NewStreamSource(eval, gen)
	if err != nil {
		t.Fatal(err)
	}
	const units = 512
	want := make([]float64, units)
	rng := stats.NewRNG(29)
	for i := range want {
		want[i] = scalarSrc.SamplePower(rng) // scalar oracle: CyclePowerMW per pair
	}
	for _, workers := range []int{1, 4} {
		src, err := NewStreamSource(eval, gen)
		if err != nil {
			t.Fatal(err)
		}
		src.Workers = workers
		got := make([]float64, units)
		src.SampleBatch(stats.NewRNG(29), got)
		if err := src.BatchErr(); err != nil {
			t.Fatalf("workers=%d: batch error %v", workers, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: unit %d: timed batch %v != scalar %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEvalEngineLengthMismatch: the shared engine reports slice-shape
// errors instead of panicking or silently truncating.
func TestEvalEngineLengthMismatch(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.Zero{}, power.Params{})
	eng := newEvalEngine(eval, 2)
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), 3)
	GeneratePacked(Uniform{N: c.NumInputs()}, stats.NewRNG(1), &pp)
	if err := eng.evaluatePacked(&pp, make([]float64, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestBuildDeterministicAcrossWorkers: Build's documented contract —
// generation is sequential, only simulation fans out — now enforced by
// the shared engine for both delay classes.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	c := bench.MustGenerate("C432")
	for _, tc := range []struct {
		name  string
		model delay.Model
	}{
		{"zero", delay.Zero{}},
		{"fanout", delay.FanoutLoaded{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eval := power.NewEvaluator(c, tc.model, power.Params{})
			gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
			base, err := Build(eval, gen, Options{Size: 500, Seed: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				pop, err := Build(eval, gen, Options{Size: 500, Seed: 2, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pop.Powers() {
					if p != base.Powers()[i] {
						t.Fatalf("workers=%d: unit %d: %v != %v", workers, i, p, base.Powers()[i])
					}
				}
			}
		})
	}
}

// TestEvalEngineSharesOneProgram: the worker clones of an evaluator built
// without a kernel cache share the one program compiled for it, instead
// of each compiling its own.
func TestEvalEngineSharesOneProgram(t *testing.T) {
	c := bench.MustGenerate("C432")
	eng := newEvalEngine(power.NewEvaluator(c, delay.FanoutLoaded{}, power.Params{}), 4)
	p := eng.evals[0].Program()
	for i, ev := range eng.evals {
		if ev.Program() != p {
			t.Fatalf("worker %d compiled its own program", i)
		}
	}
}
