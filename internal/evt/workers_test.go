package evt_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vectorgen"
)

// workerCounts is the worker matrix of the determinism test; Workers=1
// is the reference.
var workerCounts = []int{1, 2, 3, 8}

var (
	kernelsOnce sync.Once
	kernels     *sim.ProgramCache
)

// streamSource builds a speculative-kernel StreamSource on the named
// circuit under fanout-loaded delays, the library's default timed path.
func streamSource(t *testing.T, circuit string, workers int) *vectorgen.StreamSource {
	t.Helper()
	kernelsOnce.Do(func() { kernels = sim.NewProgramCache(4) })
	c := bench.MustGenerate(circuit)
	ev := power.NewEvaluator(c, delay.FanoutLoaded{}, power.Params{})
	ev.UseSpeculative(kernels, circuit+"/fanout")
	src, err := vectorgen.NewStreamSource(ev, vectorgen.HighActivity{N: c.NumInputs(), MinActivity: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	src.Workers = workers
	return src
}

// workerRun is everything deterministic one run exposes: the Result
// without its wall-clock timings and engine counters, every checkpoint
// without its timings, and the caller's RNG state afterwards.
type workerRun struct {
	res evt.Result
	cps []evt.Checkpoint
	rng [4]uint64
}

// workerCase is one way a run can end.
type workerCase struct {
	name     string
	cfg      evt.Config
	cancelAt int // > 0: cancel the run after this many hyper-samples
	seed     uint64
}

var workerCases = []workerCase{
	{name: "converge", seed: 1},
	{name: "converge-b", seed: 2},
	{name: "converge-c", seed: 3},
	{name: "cancel-1", cfg: evt.Config{Epsilon: 1e-6}, cancelAt: 1, seed: 4},
	{name: "cancel-2", cfg: evt.Config{Epsilon: 1e-6}, cancelAt: 2, seed: 5},
	{name: "cancel-3", cfg: evt.Config{Epsilon: 1e-6}, cancelAt: 3, seed: 6},
	{name: "cap-1", cfg: evt.Config{MaxHyperSamples: 1}, seed: 7},
	{name: "cap-3", cfg: evt.Config{Epsilon: 1e-6, MaxHyperSamples: 3}, seed: 8},
	{name: "cap-4", cfg: evt.Config{Epsilon: 1e-6, MaxHyperSamples: 4}, seed: 9},
}

// runWorkers runs one estimation of tc on src, resuming from resume
// when it is non-nil.
func runWorkers(t *testing.T, src evt.Source, tc workerCase, resume *evt.Checkpoint) workerRun {
	t.Helper()
	var out workerRun
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tc.cfg
	cfg.Resume = resume
	cfg.OnCheckpoint = func(cp evt.Checkpoint) {
		cp.SimNS, cp.FitNS = 0, 0
		out.cps = append(out.cps, cp)
	}
	if tc.cancelAt > 0 {
		cfg.Observer = evt.ObserverFunc(func(p evt.Progress) {
			if p.HyperSamples >= tc.cancelAt {
				cancel()
			}
		})
		if resume != nil && len(resume.Estimates) >= tc.cancelAt {
			cancel() // the interrupted run stopped right at this checkpoint
		}
	}
	est, err := evt.New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(tc.seed)
	out.res = est.RunContext(ctx, rng)
	out.rng = rng.State()
	out.res.SimTime, out.res.FitTime, out.res.Engine = 0, 0, evt.EngineStats{}
	for i := range out.res.Trace {
		out.res.Trace[i].SimTime, out.res.Trace[i].FitTime = 0, 0
	}
	return out
}

// checkWorkerRun compares a run against the Workers=1 reference.
func checkWorkerRun(t *testing.T, label string, got, want workerRun) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: result differs\n got  %+v\n want %+v", label, got.res, want.res)
	}
	if !reflect.DeepEqual(got.cps, want.cps) {
		t.Errorf("%s: checkpoints differ\n got  %+v\n want %+v", label, got.cps, want.cps)
	}
	if got.rng != want.rng {
		t.Errorf("%s: final RNG state %x, want %x", label, got.rng, want.rng)
	}
}

// checkResumes resumes the reference run from each of its checkpoints,
// checkpoint i on srcs[i%len(srcs)] so every source resumes from some
// checkpoint, and demands the reference's final statistical result and
// RNG state.
func checkResumes[S evt.Source](t *testing.T, label string, srcs []S, tc workerCase, want workerRun) {
	t.Helper()
	for i := range want.cps {
		got := runWorkers(t, srcs[i%len(srcs)], tc, &want.cps[i])
		if !reflect.DeepEqual(statFields(got.res), statFields(want.res)) {
			t.Errorf("%s: resume from checkpoint %d on source %d diverged\n got  %+v\n want %+v",
				label, i+1, i%len(srcs), statFields(got.res), statFields(want.res))
		}
		if got.rng != want.rng {
			t.Errorf("%s: resume from checkpoint %d on source %d ends at RNG %x, want %x",
				label, i+1, i%len(srcs), got.rng, want.rng)
		}
	}
}

// statFields is the part of a Result a resumed run reproduces exactly.
func statFields(r evt.Result) evt.Result {
	return evt.Result{
		Estimate: r.Estimate, CILow: r.CILow, CIHigh: r.CIHigh, RelErr: r.RelErr,
		HyperSamples: r.HyperSamples, Units: r.Units, Converged: r.Converged,
		SigmaSq: r.SigmaSq, SigmaSqLow: r.SigmaSqLow, SigmaSqHi: r.SigmaSqHi,
		ObservedMax: r.ObservedMax,
	}
}

// TestWorkerCountDeterminism: the balanced block partition hands a
// batch's blocks to any number of workers, and for every worker count a
// streaming run that converges, is cancelled, or hits the hyper-sample
// cap returns the Workers=1 Result, emits the same checkpoints
// (estimates, units, RNG state), and leaves the caller's RNG where the
// Workers=1 run leaves it; resuming from any checkpoint finishes
// identically, each worker count taking its turn at the resumes. CI runs
// it under -race.
func TestWorkerCountDeterminism(t *testing.T) {
	for _, circuit := range []string{"C432", "C3540"} {
		t.Run(circuit, func(t *testing.T) {
			srcs := make([]*vectorgen.StreamSource, len(workerCounts))
			for i, w := range workerCounts {
				srcs[i] = streamSource(t, circuit, w)
			}
			for _, tc := range workerCases {
				want := runWorkers(t, srcs[0], tc, nil)
				for i, w := range workerCounts[1:] {
					got := runWorkers(t, srcs[i+1], tc, nil)
					checkWorkerRun(t, fmt.Sprintf("%s/%s/workers=%d", circuit, tc.name, w), got, want)
				}
				checkResumes(t, circuit+"/"+tc.name, srcs, tc, want)
			}
		})
	}
}
