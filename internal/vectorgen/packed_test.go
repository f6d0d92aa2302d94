package vectorgen

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestGeneratePackedMatchesGenerate pins the RNG draw-order invariant:
// for every built-in generator, packing n pairs straight into bit planes
// consumes the RNG exactly as n Generate calls and yields the same bits.
// This is the foundation of the packed pipeline's bit-identity to the
// historical []bool path.
func TestGeneratePackedMatchesGenerate(t *testing.T) {
	const inputs, n = 70, 150
	gens := []Generator{
		Uniform{N: inputs},
		HighActivity{N: inputs, MinActivity: 0.3},
		HighActivity{N: inputs, MinActivity: 0.6, Skew: 1},
		ConstantActivity(inputs, 0.7),
		Grouped{
			N:       inputs,
			Groups:  [][]int{{0, 1, 2}, {10, 40, 69}},
			Probs:   []float64{0.9, 0.2},
			Default: 0.5,
		},
	}
	for _, g := range gens {
		scalarRNG := stats.NewRNG(42)
		packedRNG := stats.NewRNG(42)
		var pp sim.PackedPairs
		pp.Reset(inputs, n)
		GeneratePacked(g, packedRNG, &pp)
		v1 := make([]bool, inputs)
		v2 := make([]bool, inputs)
		for i := 0; i < n; i++ {
			want := g.Generate(scalarRNG)
			pp.PairInto(i, v1, v2)
			for j := 0; j < inputs; j++ {
				if v1[j] != want.V1[j] || v2[j] != want.V2[j] {
					t.Fatalf("%s pair %d input %d: packed (%v,%v) scalar (%v,%v)",
						g.Name(), i, j, v1[j], v2[j], want.V1[j], want.V2[j])
				}
			}
		}
		if scalarRNG.State() != packedRNG.State() {
			t.Fatalf("%s: packed generation consumed the RNG differently", g.Name())
		}
	}
}

// oddGenerator is a Generator without the planeGenerator fast path,
// standing in for user-supplied generators: GeneratePacked must fall back
// to Generate + SetPair with identical bits and RNG stream.
type oddGenerator struct{ n int }

func (o oddGenerator) Name() string { return "odd" }
func (o oddGenerator) Inputs() int  { return o.n }
func (o oddGenerator) Generate(rng *stats.RNG) Pair {
	v1 := make([]bool, o.n)
	v2 := make([]bool, o.n)
	for i := range v1 {
		v1[i] = rng.Bool(0.25)
		v2[i] = !v1[i]
	}
	return Pair{V1: v1, V2: v2}
}

func TestGeneratePackedFallbackAdapter(t *testing.T) {
	const inputs, n = 37, 90
	g := oddGenerator{n: inputs}
	scalarRNG := stats.NewRNG(7)
	packedRNG := stats.NewRNG(7)
	var pp sim.PackedPairs
	pp.Reset(inputs, n)
	GeneratePacked(g, packedRNG, &pp)
	v1 := make([]bool, inputs)
	v2 := make([]bool, inputs)
	for i := 0; i < n; i++ {
		want := g.Generate(scalarRNG)
		pp.PairInto(i, v1, v2)
		for j := 0; j < inputs; j++ {
			if v1[j] != want.V1[j] || v2[j] != want.V2[j] {
				t.Fatalf("pair %d input %d mismatch", i, j)
			}
		}
	}
	if scalarRNG.State() != packedRNG.State() {
		t.Fatal("fallback adapter consumed the RNG differently")
	}
}

// TestSampleBatchPackedDeterminism is the packed-pipeline determinism
// matrix of the ISSUE: on the zero, fanout, and table delay models, the
// packed SampleBatch must be bit-identical across worker counts (1 vs 8)
// and bit-identical to the scalar SamplePower oracle for the same seed.
func TestSampleBatchPackedDeterminism(t *testing.T) {
	c := bench.MustGenerate("C880")
	gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	models := []delay.Model{delay.Zero{}, delay.FanoutLoaded{}, delay.StandardTable()}
	const batch = 300
	for _, m := range models {
		eval := power.NewEvaluator(c, m, power.Params{})
		newSrc := func(workers int) *StreamSource {
			src, err := NewStreamSource(eval, gen)
			if err != nil {
				t.Fatal(err)
			}
			src.Workers = workers
			return src
		}
		w1 := make([]float64, batch)
		w8 := make([]float64, batch)
		scalar := make([]float64, batch)

		src1 := newSrc(1)
		src1.SampleBatch(stats.NewRNG(11), w1)
		if err := src1.BatchErr(); err != nil {
			t.Fatalf("%s: batch error %v", m.Name(), err)
		}
		src8 := newSrc(8)
		src8.SampleBatch(stats.NewRNG(11), w8)
		if err := src8.BatchErr(); err != nil {
			t.Fatalf("%s: batch error %v", m.Name(), err)
		}
		srcS := newSrc(1)
		rng := stats.NewRNG(11)
		for i := range scalar {
			scalar[i] = srcS.SamplePower(rng)
		}
		for i := 0; i < batch; i++ {
			if w1[i] != w8[i] {
				t.Fatalf("%s unit %d: workers=1 %v, workers=8 %v", m.Name(), i, w1[i], w8[i])
			}
			if w1[i] != scalar[i] {
				t.Fatalf("%s unit %d: packed %v, scalar oracle %v", m.Name(), i, w1[i], scalar[i])
			}
		}
	}
}

// TestPackedVsBoolAdapterBitIdentical drives the same pairs through the
// packed batch engine and, unpacked to []bool vectors, through the scalar
// oracle (per-pair CyclePowerMW), and requires bit-identical powers on
// all three delay-model classes.
func TestPackedVsBoolAdapterBitIdentical(t *testing.T) {
	c := bench.MustGenerate("C880")
	gen := Uniform{N: c.NumInputs()}
	const n = 150
	for _, m := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}, delay.StandardTable()} {
		eval := power.NewEvaluator(c, m, power.Params{})
		var pp sim.PackedPairs
		pp.Reset(c.NumInputs(), n)
		GeneratePacked(gen, stats.NewRNG(3), &pp)

		packed := make([]float64, n)
		if err := newEvalEngine(eval, 1).evaluatePacked(&pp, packed); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v1, v2 := pp.Pair(i)
			if want := eval.CyclePowerMW(v1, v2); packed[i] != want {
				t.Fatalf("%s pair %d: scalar %v, packed %v", m.Name(), i, want, packed[i])
			}
		}
	}
}

// TestSampleBatchZeroAlloc is the ISSUE's allocation guard: the
// steady-state zero-delay sampling loop — packed generation plus
// batch-engine evaluation at Workers=1 — must allocate nothing per batch.
func TestSampleBatchZeroAlloc(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.Zero{}, power.Params{})
	src, err := NewStreamSource(eval, HighActivity{N: c.NumInputs(), MinActivity: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	src.Workers = 1
	rng := stats.NewRNG(5)
	dst := make([]float64, 300)
	src.SampleBatch(rng, dst) // warm the engine, planes, and scratch
	allocs := testing.AllocsPerRun(20, func() {
		src.SampleBatch(rng, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SampleBatch allocated %v objects per batch, want 0", allocs)
	}
	if err := src.BatchErr(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildPackedStorageRoundTrip verifies that a KeepPairs population's
// bit-plane store reproduces exactly the pairs the generator drew, and
// that the packed footprint stays well under the []bool equivalent.
func TestBuildPackedStorageRoundTrip(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.Zero{}, power.Params{})
	gen := Uniform{N: c.NumInputs()}
	pop, err := Build(eval, gen, Options{Size: 257, Seed: 13, KeepPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(13)
	for i := 0; i < pop.Size(); i++ {
		want := gen.Generate(rng)
		got := pop.Pair(i)
		for j := range want.V1 {
			if got.V1[j] != want.V1[j] || got.V2[j] != want.V2[j] {
				t.Fatalf("pair %d input %d mismatch", i, j)
			}
		}
	}
	boolBytes := pop.Size() * c.NumInputs() * 2 // two []bool payloads per pair
	if pb := pop.PairBytes(); pb == 0 || pb*4 > boolBytes {
		t.Fatalf("packed pairs use %d bytes; []bool equivalent %d — want ≥4× smaller", pb, boolBytes)
	}
}
