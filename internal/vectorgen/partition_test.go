package vectorgen

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestEvaluatePackedPartition is the balanced partition's contract: for
// batch sizes that end mid-block, on a block, on a stripe, and span
// several stripes, and for worker counts that split them unevenly,
// evaluatePacked is bit-identical to the single-worker engine and to the
// scalar oracle — on the speculative default, the compiled event wheel,
// the zero-delay settle kernel, and the interpreted per-block path. CI
// runs it under -race.
func TestEvaluatePackedPartition(t *testing.T) {
	c := bench.MustGenerate("C432")
	engines := []struct {
		name  string
		model delay.Model
		setup func(*power.Evaluator)
	}{
		{"speculative", delay.FanoutLoaded{}, func(ev *power.Evaluator) { ev.UseSpeculative(nil, "") }},
		{"wheel", delay.FanoutLoaded{}, func(ev *power.Evaluator) { ev.UseKernels(nil, "") }},
		{"zero", delay.Zero{}, func(ev *power.Evaluator) { ev.UseKernels(nil, "") }},
		{"interpreted", delay.FanoutLoaded{}, func(*power.Evaluator) {}},
	}
	gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	for _, eng := range engines {
		ev := power.NewEvaluator(c, eng.model, power.Params{})
		eng.setup(ev)
		for _, n := range []int{1, 63, 64, 300, 512, 600, 1100} {
			var pp sim.PackedPairs
			pp.Reset(c.NumInputs(), n)
			GeneratePacked(gen, stats.NewRNG(uint64(n)), &pp)
			oracle := make([]float64, n)
			v1 := make([]bool, c.NumInputs())
			v2 := make([]bool, c.NumInputs())
			for i := range oracle {
				pp.PairInto(i, v1, v2)
				oracle[i] = ev.CyclePowerMW(v1, v2)
			}
			var serial []float64
			for _, workers := range []int{1, 2, 3, 8} {
				got := make([]float64, n)
				if err := newEvalEngine(ev, workers).evaluatePacked(&pp, got); err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", eng.name, n, workers, err)
				}
				if workers == 1 {
					serial = got
				}
				for i := range got {
					if got[i] != oracle[i] || got[i] != serial[i] {
						t.Fatalf("%s n=%d workers=%d pair %d: %v, single worker %v, scalar %v",
							eng.name, n, workers, i, got[i], serial[i], oracle[i])
					}
				}
			}
		}
	}
}
