package vectorgen

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/power"
	"repro/internal/sim"
)

// evalEngine is the shared simulation backend of Build and
// StreamSource: it evaluates a packed batch of vector pairs into a slice
// of cycle powers across a bounded worker pool. The batch's 64-lane
// blocks are split evenly over the workers, and each worker runs its
// share as stripes of the speculative kernel (the settle kernel under
// zero delay). Each worker slot owns a cloned evaluator sharing one
// compiled program, so the kernel executors (and their per-clone scratch
// state) are built once and reused across calls.
//
// Determinism: powers[i] depends only on pair i, and every write lands
// at its own index, so the output is bit-identical for any worker count,
// any partition, and any goroutine schedule.
type evalEngine struct {
	workers int
	evals   []*power.Evaluator // one clone per worker slot
	errs    []error            // per-worker outcome of the last call
	wg      sync.WaitGroup
}

// newEvalEngine clones eval into workers independent evaluators
// (0 = NumCPU). The program is resolved before cloning, so the clones
// share one compile instead of each compiling its own.
func newEvalEngine(eval *power.Evaluator, workers int) *evalEngine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	eval.Program()
	e := &evalEngine{workers: workers, evals: make([]*power.Evaluator, workers), errs: make([]error, workers)}
	for i := range e.evals {
		e.evals[i] = eval.Clone()
	}
	return e
}

// specStats sums the speculation counters across the pool's evaluator
// clones. Callers read it between batches (the pool is quiescent after
// evaluatePacked returns), so no synchronization is needed beyond the
// happens-before of the worker WaitGroup.
func (e *evalEngine) specStats() sim.SpecStats {
	var agg sim.SpecStats
	for _, ev := range e.evals {
		agg.Add(ev.SpecStats())
	}
	return agg
}

// evaluatePacked fills powers[i] with the cycle power (mW) of pp's pair
// i — the pipeline's native path: the planes feed the batch engine
// directly, so no [][]bool and no per-call transpose exist anywhere under
// it. The blocks are partitioned evenly over the workers (a 5-block
// batch on two workers runs 3+2 instead of all 5 on one worker; 10
// blocks run 5+5, not one full stripe plus a 2-block tail), and each
// worker cuts its share into even stripes of at most StripeWords words.
// Every write lands at its own index, so results stay bit-identical for
// any worker count.
// The calling goroutine runs the first share itself, so a single worker
// starts no goroutine and performs zero heap allocations in steady
// state; more workers pay only the goroutine fan-out. An engine serves
// one call at a time.
func (e *evalEngine) evaluatePacked(pp *sim.PackedPairs, powers []float64) error {
	if pp.N != len(powers) {
		return fmt.Errorf("vectorgen: %d packed pairs but %d power slots", pp.N, len(powers))
	}
	if pp.N == 0 {
		return nil
	}
	workers := min(e.workers, pp.Blocks())
	e.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go e.share(w, workers, pp, powers)
	}
	e.share(0, workers, pp, powers)
	e.wg.Wait()
	for _, err := range e.errs[:workers] {
		if err != nil {
			return err
		}
	}
	return nil
}

// share evaluates worker w's even share of pp's blocks into their power
// slots, records the outcome in errs[w], and marks the worker done.
func (e *evalEngine) share(w, workers int, pp *sim.PackedPairs, powers []float64) {
	defer e.wg.Done()
	blocks := pp.Blocks()
	e.errs[w] = evalShare(e.evals[w], pp, w*blocks/workers, (w+1)*blocks/workers, powers)
}

// evalShare evaluates blocks [lo, hi) of pp into their power slots
// through one worker's evaluator, as even stripes of at most StripeWords
// blocks.
func evalShare(ev *power.Evaluator, pp *sim.PackedPairs, lo, hi int, powers []float64) error {
	width := ev.StripeWords()
	share := hi - lo
	stripes := (share + width - 1) / width
	for j := 0; j < stripes; j++ {
		b0, b1 := lo+j*share/stripes, lo+(j+1)*share/stripes
		if err := ev.PackedBlockRangeMW(pp, b0, b1-b0, powers[b0*64:min(pp.N, b1*64)]); err != nil {
			return fmt.Errorf("vectorgen: compiled stripe evaluation: %w", err)
		}
	}
	return nil
}
