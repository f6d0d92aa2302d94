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

// batchMW evaluates a whole packed batch stripe by stripe into out.
func batchMW(e *Evaluator, pp *sim.PackedPairs, out []float64) error {
	sl := e.StripeWords() * 64
	for b0 := 0; b0 < pp.N; b0 += sl {
		if err := e.PackedStripeMW(pp, b0/sl, out[b0:min(pp.N, b0+sl)]); err != nil {
			return err
		}
	}
	return nil
}

// TestKernelBatchMatchesSerial is the power-level differential for the
// batch engine: whole packed batches must produce bit-identical powers to
// per-pair CyclePowerMW on all four delay models, across multi-stripe
// batches with a ragged tail.
func TestKernelBatchMatchesSerial(t *testing.T) {
	c := bench.MustGenerate("C880")
	nIn := c.NumInputs()
	for _, n := range []int{150, 300, 1100} { // partial block, partial stripe, multi-stripe
		for _, m := range []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()} {
			e := NewEvaluator(c, m, Params{})
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
			if err := batchMW(e, &pp, out); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if want := e.CyclePowerMW(v1s[i], v2s[i]); out[i] != want {
					t.Fatalf("%s n=%d pair %d: batch %v serial %v", m.Name(), n, i, out[i], want)
				}
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
	a.UseSpeculative(kc, "C432/fanout")
	b := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	b.UseSpeculative(kc, "C432/fanout")
	if a.StripeWords() != sim.DefaultStripeWords || b.StripeWords() != a.StripeWords() {
		t.Fatalf("stripe widths %d/%d", a.StripeWords(), b.StripeWords())
	}
	st := kc.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("two evaluators, one key: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	cl := a.Clone()
	if cl.Program() != a.Program() {
		t.Fatal("clone does not share the parent's program")
	}
	if st := kc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("clone went back to the cache (hits=%d misses=%d)", st.Hits, st.Misses)
	}
	u := NewEvaluator(c, delay.Unit{}, Params{})
	u.UseSpeculative(kc, "C432/unit")
	u.StripeWords()
	if st := kc.Stats(); st.Misses != 2 {
		t.Fatalf("second delay model did not compile its own program (misses=%d)", st.Misses)
	}
}

// TestKernelStripeZeroAlloc guards the batch engine's steady state: a
// warm evaluation of a full multi-word stripe allocates nothing, on the
// settle kernel and on the timed kernel alike.
func TestKernelStripeZeroAlloc(t *testing.T) {
	c := bench.MustGenerate("C432")
	for _, m := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}} {
		e := NewEvaluator(c, m, Params{})
		const n = 300
		var pp sim.PackedPairs
		pp.Reset(c.NumInputs(), n)
		for i := 0; i < n; i++ {
			pp.SetPair(i, kernelPattern(c.NumInputs(), uint64(i+1)), kernelPattern(c.NumInputs(), uint64(i+500)))
		}
		out := make([]float64, n)
		if err := e.PackedStripeMW(&pp, 0, out); err != nil {
			t.Fatal(err) // warm: compile + grow toggle planes
		}
		if err := e.PackedStripeMW(&pp, 0, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := e.PackedStripeMW(&pp, 0, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: PackedStripeMW allocated %v/op, want 0", m.Name(), allocs)
		}
	}
}

// TestKernelStripeShapeValidation: PackedStripeMW rejects wrong-shaped
// out slices, out-of-range stripes, and batches of the wrong width.
func TestKernelStripeShapeValidation(t *testing.T) {
	c := bench.MustGenerate("C432")
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), 100)
	if err := e.PackedStripeMW(&pp, 0, make([]float64, 64)); err == nil {
		t.Fatal("short out slice accepted")
	}
	if err := e.PackedStripeMW(&pp, 1, make([]float64, 100)); err == nil {
		t.Fatal("out-of-range stripe accepted")
	}
	var wide sim.PackedPairs
	wide.Reset(c.NumInputs()+1, 100)
	if err := e.PackedStripeMW(&wide, 0, make([]float64, 100)); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if err := e.PackedStripeMW(&pp, 0, make([]float64, 100)); err != nil {
		t.Fatal(err)
	}
}

// TestKernelBlockRangeShapeValidation: PackedBlockRangeMW accepts any
// in-bounds range up to one stripe wide, at any block offset, and
// rejects empty, over-wide, out-of-range, wrong-shaped, and wrong-width
// requests with an error, never a panic.
func TestKernelBlockRangeShapeValidation(t *testing.T) {
	c := bench.MustGenerate("C432")
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), 600) // 10 blocks, the last one 24 lanes
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
	for _, inputs := range []int{c.NumInputs() - 1, c.NumInputs() + 1} {
		var other sim.PackedPairs
		other.Reset(inputs, 600)
		if err := e.PackedBlockRangeMW(&other, 3, 2, make([]float64, 128)); err == nil {
			t.Errorf("packed batch of width %d accepted by a %d-input circuit", inputs, c.NumInputs())
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
