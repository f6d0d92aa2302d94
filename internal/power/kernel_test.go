package power

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/sim"
)

// kernelPattern builds one deterministic pseudo-random input vector.
func kernelPattern(nIn int, seed uint64) []bool {
	v := make([]bool, nIn)
	x := seed
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = x&1 != 0
	}
	return v
}

// TestKernelBatchMatchesSerial is the power-level differential for the
// compiled striped path: with UseKernels on, BatchMWPacked must produce
// bit-identical powers to per-pair CyclePowerMW on all four delay
// models, across multi-stripe batches with a ragged tail — the same
// contract the interpreted packed path carries.
func TestKernelBatchMatchesSerial(t *testing.T) {
	c := bench.MustGenerate("C880")
	nIn := c.NumInputs()
	const n = 300 // 5 blocks: one partial stripe, the estimator's shape
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	for _, m := range models {
		e := NewEvaluator(c, m, Params{})
		e.UseKernels(nil, "")
		oracle := NewEvaluator(c, m, Params{})
		var pp sim.PackedPairs
		pp.Reset(nIn, n)
		v1s := make([][]bool, n)
		v2s := make([][]bool, n)
		for i := 0; i < n; i++ {
			v1s[i] = kernelPattern(nIn, uint64(9*i+1))
			v2s[i] = kernelPattern(nIn, uint64(9*i+5))
			pp.SetPair(i, v1s[i], v2s[i])
		}
		out := make([]float64, n)
		if err := e.BatchMWPacked(&pp, out); err != nil {
			t.Fatal(err)
		}
		interp := make([]float64, n)
		if err := oracle.BatchMWPacked(&pp, interp); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := oracle.CyclePowerMW(v1s[i], v2s[i])
			if out[i] != want {
				t.Fatalf("%s pair %d: kernel %v serial %v", m.Name(), i, out[i], want)
			}
			if interp[i] != want {
				t.Fatalf("%s pair %d: interpreted %v serial %v", m.Name(), i, interp[i], want)
			}
		}
	}
}

// TestKernelCacheSharing: evaluators given one cache under one key share
// a single compiled program, clones inherit it without recompiling, and
// distinct delay models under distinct keys compile distinct programs.
func TestKernelCacheSharing(t *testing.T) {
	c := bench.MustGenerate("C432")
	kc := sim.NewProgramCache(4)
	a := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	a.UseKernels(kc, "C432/fanout")
	b := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	b.UseKernels(kc, "C432/fanout")
	if a.StripeWords() != sim.DefaultStripeWords || b.StripeWords() != a.StripeWords() {
		t.Fatalf("stripe widths %d/%d", a.StripeWords(), b.StripeWords())
	}
	st := kc.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("two evaluators, one key: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	cl := a.Clone()
	if !cl.KernelsEnabled() {
		t.Fatal("clone dropped the kernel configuration")
	}
	cl.StripeWords() // must not touch the cache: the program is inherited
	if st := kc.Stats(); st.Misses != 1 {
		t.Fatalf("clone recompiled (misses=%d)", st.Misses)
	}
	u := NewEvaluator(c, delay.Unit{}, Params{})
	u.UseKernels(kc, "C432/unit")
	u.StripeWords()
	if st := kc.Stats(); st.Misses != 2 {
		t.Fatalf("second delay model did not compile its own program (misses=%d)", st.Misses)
	}
}

// TestKernelStripeZeroAlloc guards the compiled and speculative steady
// states: a warm striped evaluation of a full multi-word stripe
// allocates nothing, whichever executor runs it.
func TestKernelStripeZeroAlloc(t *testing.T) {
	c := bench.MustGenerate("C432")
	engines := []struct {
		name   string
		enable func(e *Evaluator)
	}{
		{"compiled", func(e *Evaluator) { e.UseKernels(nil, "") }},
		{"speculative", func(e *Evaluator) { e.UseSpeculative(nil, "") }},
	}
	for _, eng := range engines {
		for _, m := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}} {
			e := NewEvaluator(c, m, Params{})
			eng.enable(e)
			const n = 300
			var pp sim.PackedPairs
			pp.Reset(c.NumInputs(), n)
			for i := 0; i < n; i++ {
				pp.SetPair(i, kernelPattern(c.NumInputs(), uint64(i+1)), kernelPattern(c.NumInputs(), uint64(i+500)))
			}
			out := make([]float64, n)
			if err := e.BatchMWPacked(&pp, out); err != nil {
				t.Fatal(err) // warm: compile + grow toggle planes
			}
			if err := e.BatchMWPacked(&pp, out); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := e.BatchMWPacked(&pp, out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s/%s: kernel BatchMWPacked allocated %v/op, want 0", eng.name, m.Name(), allocs)
			}
		}
	}
}

// TestKernelStripeShapeValidation: PackedStripeMW rejects wrong-shaped
// out slices and refuses to run without UseKernels.
func TestKernelStripeShapeValidation(t *testing.T) {
	c := bench.MustGenerate("C432")
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), 100)
	if err := e.PackedStripeMW(&pp, 0, make([]float64, 100)); err == nil {
		t.Fatal("PackedStripeMW ran without UseKernels")
	}
	e.UseKernels(nil, "")
	if err := e.PackedStripeMW(&pp, 0, make([]float64, 64)); err == nil {
		t.Fatal("short out slice accepted")
	}
	if err := e.PackedStripeMW(&pp, 1, make([]float64, 100)); err == nil {
		t.Fatal("out-of-range stripe accepted")
	}
	if err := e.PackedStripeMW(&pp, 0, make([]float64, 100)); err != nil {
		t.Fatal(err)
	}
}

// TestKernelBlockRangeShapeValidation: PackedBlockRangeMW accepts any
// in-bounds range up to one stripe wide, at any block offset, and
// rejects empty, over-wide, out-of-range, and wrong-shaped requests.
func TestKernelBlockRangeShapeValidation(t *testing.T) {
	c := bench.MustGenerate("C432")
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), 600) // 10 blocks, the last one 24 lanes
	if err := e.PackedBlockRangeMW(&pp, 0, 1, make([]float64, 64)); err == nil {
		t.Fatal("PackedBlockRangeMW ran without UseKernels")
	}
	e.UseSpeculative(nil, "")
	w := e.StripeWords()
	for _, bad := range []struct{ b0, nb, out int }{
		{0, 0, 0},
		{-1, 1, 64},
		{0, w + 1, (w + 1) * 64},
		{9, 2, 24},
		{3, 2, 127},
		{9, 1, 64},
	} {
		if err := e.PackedBlockRangeMW(&pp, bad.b0, bad.nb, make([]float64, bad.out)); err == nil {
			t.Errorf("blocks [%d, %d) into %d slots accepted", bad.b0, bad.b0+bad.nb, bad.out)
		}
	}
	for _, ok := range []struct{ b0, nb, out int }{
		{3, 2, 128},
		{1, w, w * 64},
		{9, 1, 24},
		{5, 5, 5*64 - 40},
	} {
		if err := e.PackedBlockRangeMW(&pp, ok.b0, ok.nb, make([]float64, ok.out)); err != nil {
			t.Errorf("blocks [%d, %d): %v", ok.b0, ok.b0+ok.nb, err)
		}
	}
}
