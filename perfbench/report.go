package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// report collects one run's numbers, correctness failures and
// human-readable notes, and prints them.
type report struct {
	workload string
	seed     uint64
	trace    bool

	// failed counts failed operations and failed correctness checks;
	// checksFailed only the latter, which make the run incorrect.
	attempted, failed, checksFailed int
	failures                        []string
	values                          map[string]float64
	lines                           []string
}

func newReport(o options) *report {
	return &report{workload: o.workload, seed: o.seed, trace: o.trace, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts one failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.checksFailed++
	r.failOp(format, args...)
}

// failOp counts one operation that produced no output to check: a
// refused submission or a job still unfinished at the drain deadline.
func (r *report) failOp(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// timings sets the latency metrics: run is the wall time of each
// estimation, job the due-to-result time of each successful request.
// A request meets the SLO when it succeeded within limitMS; failed and
// refused requests miss it.
func (r *report) timings(run, job dist, attempted int, limitMS float64) {
	r.values["run_ms_p50"], _ = run.pct(0.5)
	r.values["run_ms_p90"], _ = run.pct(0.9)
	r.values["job_ms_p50"], _ = job.pct(0.5)
	r.values["job_ms_p99"], _ = job.pct(0.99)
	met := 0
	for _, d := range job {
		if float64(d)/1e6 <= limitMS {
			met++
		}
	}
	r.values["slo_met_frac"] = float64(met) / float64(attempted)
	r.lines = append(r.lines,
		run.pctLine("run_ms_p50", 0.5), run.pctLine("run_ms_p90", 0.9),
		job.pctLine("job_ms_p50", 0.5), job.pctLine("job_ms_p99", 0.99))
	r.linef("%-26s %12.6f fraction   (limit %.0f ms on job_ms)", "slo_miss_frac", 1-r.values["slo_met_frac"], limitMS)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the report: every metric of the run's kind by name and
// unit, the notes, the failures, and the result line.
func (r *report) emit() error {
	table, kind := endToEnd, "end-to-end"
	if r.trace {
		table, kind = perLayer, "per-layer"
	}
	fmt.Printf("# perfbench workload=%s seed=%d trace=%v\n", r.workload, r.seed, r.trace)
	out := result{Attempted: r.attempted, Metrics: map[string]metricValue{}}
	var missing []string
	for _, m := range table {
		v, ok := r.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Printf("%-32s %16.6f %-8s (%s is better)\n", m.Name, v, m.Unit, m.Better)
	}
	if len(missing) > 0 {
		r.fail("%s metrics not measured: %s", kind, strings.Join(missing, ", "))
	}
	if r.attempted > 0 {
		fmt.Printf("%-32s %16.6f %-8s (%d of %d)\n", "fail_frac", float64(r.failed)/float64(r.attempted), "fraction", r.failed, r.attempted)
	}
	for _, l := range r.lines {
		fmt.Println("  " + l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAILED: "+f)
	}
	out.Failed = r.failed
	out.Correct = r.checksFailed == 0 && r.attempted > 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
