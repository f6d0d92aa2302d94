// Command perfbench is the repository benchmark. It runs one named
// workload against the public API for a fixed time, checks every output,
// and prints each end-to-end metric by name and unit; with --trace 1 it
// instead runs the workload's traced pass and prints the per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload stream-c3540-fanout --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package into .bench_build with its build cache
// kept there too. Other modes:
//
//	perfbench -manifest        # regenerate BENCHMARK.json and perfbench/workloads.json
//	perfbench -write-digests   # regenerate perfbench/digests/*.txt (the stored results)
//
// Workloads, metrics, bounds and the predicted layer-to-end-to-end map
// are declared in spec.go. Every estimator seed a run uses comes from a
// fixed pool whose results are stored as digests, so every estimate is
// checked against its stored digest; service-mix results must also equal
// a library run of the same request bit for bit. A failed check is
// counted in failed and makes the exit code 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Paths under the checkout root, which is the working directory.
const (
	buildDir  = ".bench_build"
	traceDir  = buildDir + "/trace"
	runDir    = buildDir + "/run"
	digestDir = "perfbench/digests"
)

type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	workers  int
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o            options
		seconds      int
		trace        int
		manifest     bool
		writeDigests bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "selects the window of estimator seeds")
	flag.IntVar(&seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.BoolVar(&manifest, "manifest", false, "write BENCHMARK.json and perfbench/workloads.json")
	flag.BoolVar(&writeDigests, "write-digests", false, "recompute the stored result digests of the whole seed pool")
	flag.Parse()
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.workers = runtime.NumCPU()

	var err error
	switch {
	case manifest:
		err = writeManifest()
	case writeDigests:
		err = writeAllDigests(o.workers)
	default:
		err = runWorkload(o, seconds, trace)
	}
	if errors.Is(err, errChecks) {
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return 0
}

// errChecks reports a completed run whose correctness checks failed.
var errChecks = errors.New("correctness checks failed")

func runWorkload(o options, seconds, trace int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	var rep *report
	var err error
	switch o.workload {
	case wStream:
		rep, err = runClosed(o, setupStream)
	case wFinite:
		rep, err = runClosed(o, setupFinite)
	case wService:
		rep, err = runService(o)
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	if err := rep.emit(); err != nil {
		return err
	}
	if rep.checksFailed > 0 {
		return errChecks
	}
	return nil
}
