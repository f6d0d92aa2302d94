package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/vectorgen"
	"repro/maxpower"
)

// The two job kinds of service-mix, alternating.
const (
	kindPop    = 0 // C432 fanout population job: fit-only, reads the population cache
	kindStream = 1 // C6288 zero-delay streaming job: the settle-only sim path
)

// pollEvery spaces status polls of one job.
const pollEvery = time.Millisecond

// drainTimeout bounds the wait for outstanding jobs after the last
// submit; a job still unfinished then counts as failed.
const drainTimeout = 30 * time.Second

func jobRequest(kind int, seed uint64) service.JobRequest {
	if kind == kindPop {
		return service.JobRequest{
			Circuit:    "C432",
			Population: service.PopulationSpec{Kind: maxpower.PopHighActivity, Size: popSize, Seed: popSeed, DelayModel: "fanout"},
			Options:    service.EstimateOptions{Seed: seed},
		}
	}
	return service.JobRequest{
		Circuit:    "C6288",
		Streaming:  true,
		Population: service.PopulationSpec{Kind: maxpower.PopHighActivity, DelayModel: "zero"},
		Options:    service.EstimateOptions{Seed: seed, Workers: 1},
	}
}

// c6288Spec is the streaming job's population spec in library form.
var c6288Spec = maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, DelayModel: "zero"}

// svc is one in-process daemon: a journaled Manager behind httptest,
// reached over a single client connection.
type svc struct {
	mgr *service.Manager
	srv *httptest.Server
	cl  *http.Client
	dir string
	// workers is the daemon's worker-pool size.
	workers int
	tr      *tracer
	// busy is the generator's time inside HTTP calls.
	busy time.Duration
}

// startService starts a daemon and runs one job of each kind to
// completion, so the population cache and both kernels are warm.
func startService(workers, n int) (*svc, error) {
	dir := filepath.Join(runDir, fmt.Sprintf("svc-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mgr, err := service.NewManager(service.ManagerConfig{Workers: workers, SimWorkers: 1, DataDir: dir})
	if err != nil {
		return nil, err
	}
	s := &svc{
		mgr:     mgr,
		srv:     httptest.NewServer(service.NewServer(mgr)),
		cl:      &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		dir:     dir,
		workers: workers,
	}
	for kind := kindPop; kind <= kindStream; kind++ {
		body, _ := json.Marshal(jobRequest(kind, warmSeed))
		id, code, err := s.submit(body, 0)
		if err != nil || code != http.StatusAccepted {
			s.stop()
			return nil, fmt.Errorf("warm-up submit: status %d: %v", code, err)
		}
		deadline := time.Now().Add(drainTimeout)
		for {
			st, err := s.status(id, 0)
			if err != nil {
				s.stop()
				return nil, err
			}
			if st.State == service.StateDone {
				break
			}
			if st.State.Terminal() || time.Now().After(deadline) {
				s.stop()
				return nil, fmt.Errorf("warm-up job %s: %s %s", id, st.State, st.Error)
			}
			time.Sleep(pollEvery)
		}
	}
	return s, nil
}

func (s *svc) stop() {
	s.cl.CloseIdleConnections()
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	_ = s.mgr.Shutdown(ctx) // a drain that times out only delays exit
	os.RemoveAll(s.dir)
}

// do runs one HTTP call under a span, decoding a 2xx body into out.
func (s *svc) do(spanName string, run int32, method, path string, body []byte, out any) (int, error) {
	sp := s.tr.begin(spanName, 0, run)
	start := time.Now()
	defer func() {
		s.busy += time.Since(start)
		s.tr.end(sp)
	}()
	req, err := http.NewRequest(method, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (s *svc) submit(body []byte, run int32) (string, int, error) {
	var out struct {
		ID string `json:"id"`
	}
	code, err := s.do("service.submit", run, http.MethodPost, "/v1/jobs", body, &out)
	return out.ID, code, err
}

func (s *svc) status(id string, run int32) (service.JobStatus, error) {
	var st service.JobStatus
	code, err := s.do("service.poll", run, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %s: HTTP %d", id, code)
	}
	return st, err
}

func (s *svc) result(id string, run int32) (service.JobResult, error) {
	var res service.JobResult
	code, err := s.do("service.result", run, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result %s: HTTP %d", id, code)
	}
	return res, err
}

func (s *svc) stats() (service.Stats, error) {
	var st service.Stats
	_, err := s.do("service.stats", 0, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

func (s *svc) journalBytes() int64 {
	fi, err := os.Stat(filepath.Join(s.dir, "journal.jsonl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// mixJob is one scheduled request of the open loop and its outcome.
// A refused job and one unfinished at the drain deadline are failed
// operations; any other failure is a failed correctness check.
type mixJob struct {
	i, kind, idx int
	due          time.Time
	id           string
	nextPoll     time.Time
	done         bool
	ok           bool
	overload     bool // refused, or unfinished at the drain deadline
	latency      time.Duration
	status       service.JobStatus
	res          service.JobResult
	err          string
}

// mixRun is the outcome of one open-loop pass.
type mixRun struct {
	jobs             []*mixJob
	start, end       time.Time
	refused          int
	maxLag           time.Duration
	submits, pollsRT dist
	journalBytes     int64
}

// openLoop submits n jobs on a fixed schedule of rate jobs per second
// from this goroutine alone, polling outstanding jobs between submits
// and fetching each result once its job is done. Each job is timed from
// when its submit was due, so a stall delays every job behind it.
func (s *svc) openLoop(n int, bodies [2][][]byte) *mixRun {
	interval := time.Second / serviceRate
	mr := &mixRun{start: time.Now().Add(10 * time.Millisecond)}
	journal0 := s.journalBytes()
	var outstanding []*mixJob
	next := 0
	dueOf := func(i int) time.Time { return mr.start.Add(time.Duration(i) * interval) }
	var drainBy time.Time
	for {
		now := time.Now()
		if next < n && !now.Before(dueOf(next)) {
			j := &mixJob{i: next, kind: next % 2, idx: (next / 2) % windowLen, due: dueOf(next)}
			mr.jobs = append(mr.jobs, j)
			if lag := now.Sub(j.due); lag > mr.maxLag {
				mr.maxLag = lag
			}
			t0 := time.Now()
			id, code, err := s.submit(bodies[j.kind][j.idx], int32(next+1))
			mr.submits = append(mr.submits, time.Since(t0))
			switch {
			case err != nil:
				j.done, j.err = true, err.Error()
			case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
				mr.refused++
				j.done, j.overload, j.err = true, true, fmt.Sprintf("refused: HTTP %d", code)
			case code != http.StatusAccepted:
				j.done, j.err = true, fmt.Sprintf("submit: HTTP %d", code)
			default:
				j.id = id
				j.nextPoll = time.Now().Add(pollEvery)
				outstanding = append(outstanding, j)
			}
			next++
			if next == n {
				drainBy = time.Now().Add(drainTimeout)
			}
			continue
		}
		// The queue is FIFO (one tenant, one class), so only the oldest
		// `workers` outstanding jobs can be running or done: polling just
		// those keeps the generator's load bounded when a backlog builds.
		heads := outstanding
		if len(heads) > s.workers {
			heads = heads[:s.workers]
		}
		if len(heads) > 0 {
			k := 0
			for i, j := range heads {
				if j.nextPoll.Before(heads[k].nextPoll) {
					k = i
				}
			}
			if j := outstanding[k]; !now.Before(j.nextPoll) {
				run := int32(j.i + 1)
				t0 := time.Now()
				st, err := s.status(j.id, run)
				mr.pollsRT = append(mr.pollsRT, time.Since(t0))
				switch {
				case err != nil:
					j.done, j.err = true, err.Error()
				case st.State == service.StateDone:
					j.status = st
					res, err := s.result(j.id, run)
					j.done = true
					if err != nil {
						j.err = err.Error()
					} else {
						j.res, j.ok = res, true
						j.latency = time.Since(j.due)
						mr.end = time.Now()
					}
				case st.State.Terminal():
					j.done, j.err = true, fmt.Sprintf("job %s: %s", st.State, st.Error)
				default:
					j.nextPoll = time.Now().Add(pollEvery)
				}
				if j.done {
					outstanding = append(outstanding[:k], outstanding[k+1:]...)
				}
				continue
			}
		}
		if next == n && (len(outstanding) == 0 || now.After(drainBy)) {
			for _, j := range outstanding {
				j.done, j.overload, j.err = true, true, "unfinished at drain timeout"
			}
			break
		}
		wake := time.Time{}
		if next < n {
			wake = dueOf(next)
		}
		for _, j := range heads {
			if wake.IsZero() || j.nextPoll.Before(wake) {
				wake = j.nextPoll
			}
		}
		time.Sleep(time.Until(wake))
	}
	if mr.end.IsZero() {
		mr.end = time.Now()
	}
	mr.journalBytes = s.journalBytes() - journal0
	return mr
}

// libRef holds the library's answers to the window's requests.
type libRef struct {
	pop     *maxpower.Population
	c6288   *netlist.Circuit
	kernels *maxpower.KernelCache // the C6288 zero-delay kernel
	results [2][]evt.Result
	buildMS float64
}

// runService runs service-mix.
func runService(o options) (*report, error) {
	rep := newReport(o)
	var setups []time.Duration
	var s *svc
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
		}
		runtime.GC() // each set-up starts on a quiet heap, as at process start
		start := time.Now()
		var err error
		if s, err = startService(o.workers, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	defer s.stop()
	pool := poolSeeds()
	win := window(o.seed)
	bodies := mixBodies(pool, win)
	n := serviceRate * int(o.duration/time.Second)
	if n < minRequests {
		n = minRequests
	}

	s.busy = 0
	mr := s.openLoop(n, bodies)
	busy := s.busy
	rss := peakRSSMB()

	lib, err := libraryAnswers(o, pool, win)
	if err != nil {
		return nil, err
	}
	for kind, table := range []string{"pop-c432-fanout", "stream-c6288-zero"} {
		stored, err := loadDigests(table)
		if err != nil {
			return nil, err
		}
		for i, r := range lib.results[kind] {
			if !stored.match(win[i], r) {
				rep.fail("library %s seed %d: digest %s, stored %s", kindName(kind), pool[win[i]], digest(r), stored.get(win[i]))
			}
		}
	}
	rep.checkMix(mr, lib)
	if !o.trace {
		rep.mixMetrics(mr, lib)
		rep.set("setup_s", medianDur(setups).Seconds())
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}

	// Traced run: the same schedule again with spans at submit, poll and
	// result, then a traced library replay of the window's requests for
	// the estimator layers.
	s.tr = newTracer()
	s.busy = 0
	mt := s.openLoop(n, bodies)
	busyTraced := s.busy
	rep.checkMix(mt, lib)
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	rep.mixLayers(mt)
	rep.set("sim.compile_ms", float64(st.KernelCompileNS)/1e6)
	rep.set("vectorgen.population_build_ms", lib.buildMS)
	svcTrace := s.tr
	s.tr = nil

	// A streaming request allocates its own evaluator clones (~1 MB), so
	// the GC-off counting pass covers only the first allocRuns requests
	// of each kind.
	const allocRuns = 32
	ac := startAllocCount()
	runs := 0
	for kind := range lib.results {
		for _, j := range win[:allocRuns] {
			if _, err := lib.estimate(kind, pool[j]); err != nil {
				rep.fail("%v", err)
			}
			runs++
		}
	}
	bytes, objs := ac.stop()
	rep.set("evt.alloc_bytes_per_run", float64(bytes)/float64(runs))
	rep.set("evt.allocs_per_run", float64(objs)/float64(runs))

	// Replay spans join the service spans in one tracer so self times
	// cover the whole traced run.
	tr := svcTrace
	seeds := make([]uint64, len(win))
	for i, j := range win {
		seeds[i] = pool[j]
	}
	var rc runCounts
	var src *tracedSource
	for kind := range lib.results {
		est, ts, setRun := lib.traced(o, kind, tr)
		got, c := tracedRuns(tr, est, setRun, seeds, int32(n+kind*len(win)))
		for i := range got {
			rep.attempted++
			if digest(got[i]) != digest(lib.results[kind][i]) {
				rep.fail("%s seed %d: traced replay differs from the library", kindName(kind), seeds[i])
			}
		}
		if ts != nil {
			src = ts
			if ts.err != nil {
				rep.fail("traced source: %v", ts.err)
			}
		}
		rc.runs += c.runs
		rc.hypers += c.hypers
		rc.attempts += c.attempts
		rc.fallbacks += c.fallbacks
		rc.units += c.units
	}
	rep.estimatorLayers(tr.stats(), rc, src, false)
	rep.overhead(tr, busyTraced, busy)
	rep.linef("service overhead is the generator's busy time in HTTP calls: the open loop's wall time is fixed by its schedule")
	return rep, nil
}

// mixBodies renders the window's requests of both kinds.
func mixBodies(pool []uint64, win []int) [2][][]byte {
	var bodies [2][][]byte
	for kind := range bodies {
		for _, j := range win {
			b, _ := json.Marshal(jobRequest(kind, pool[j])) // plain structs always marshal
			bodies[kind] = append(bodies[kind], b)
		}
	}
	return bodies
}

// traceServiceLayers measures the service layers for a workload that has
// no daemon of its own: it starts one, runs minRequests jobs of the mix
// open-loop with spans in tr, checks every result against the library,
// and sets the service.* metrics.
func (rep *report) traceServiceLayers(o options, tr *tracer) error {
	s, err := startService(o.workers, 0)
	if err != nil {
		return fmt.Errorf("service set-up: %w", err)
	}
	defer s.stop()
	pool := poolSeeds()
	win := window(o.seed)
	lib, err := libraryAnswers(o, pool, win)
	if err != nil {
		return err
	}
	s.tr = tr
	mr := s.openLoop(minRequests, mixBodies(pool, win))
	s.tr = nil
	rep.checkMix(mr, lib)
	rep.mixLayers(mr)
	return nil
}

func kindName(kind int) string {
	if kind == kindPop {
		return "C432 population job"
	}
	return "C6288 streaming job"
}

// libraryAnswers runs every request of the window through the library:
// the reference each service result must equal bit for bit.
func libraryAnswers(o options, pool []uint64, win []int) (*libRef, error) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pop, err := maxpower.BuildPopulation(c, c432Spec(o.workers))
	if err != nil {
		return nil, err
	}
	buildMS := float64(time.Since(start)) / 1e6
	c6288, err := maxpower.Circuit("C6288")
	if err != nil {
		return nil, err
	}
	lib := &libRef{pop: pop, c6288: c6288, kernels: maxpower.NewKernelCache(2), buildMS: buildMS}
	for kind := range lib.results {
		for _, j := range win {
			r, err := lib.estimate(kind, pool[j])
			if err != nil {
				return nil, err
			}
			lib.results[kind] = append(lib.results[kind], r)
		}
	}
	return lib, nil
}

func (lib *libRef) estimate(kind int, seed uint64) (evt.Result, error) {
	if kind == kindPop {
		return maxpower.Estimate(lib.pop, maxpower.EstimateOptions{Seed: seed})
	}
	return maxpower.EstimateStreaming(lib.c6288, c6288Spec, maxpower.EstimateOptions{Seed: seed, Workers: 1, Kernels: lib.kernels})
}

// traced builds a spanned estimator for one job kind.
func (lib *libRef) traced(o options, kind int, tr *tracer) (*evt.Estimator, *tracedSource, func(int32)) {
	if kind == kindPop {
		sp := &spannedPop{Population: lib.pop, tr: tr}
		e, _ := evt.New(sp, evt.Config{})
		return e, nil, func(run int32) { sp.run = run }
	}
	c := lib.c6288
	model := delay.Zero{}
	ev := power.NewEvaluator(c, model, power.Params{})
	ev.UseSpeculative(lib.kernels, c.Name+"/"+model.Name())
	ts := newTracedSource(ev, model, vectorgen.HighActivity{N: c.NumInputs(), MinActivity: 0.3}, o.workers, tr)
	e, _ := evt.New(ts, evt.Config{})
	return e, ts, func(run int32) { ts.run = run }
}

// sameBits compares a service result with the library's, field by field
// and bit for bit, after the wire form's non-finite sanitizing.
func sameBits(got service.JobResult, want evt.Result) bool {
	f := func(x float64) uint64 {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			x = 0
		}
		return math.Float64bits(x)
	}
	return f(got.Estimate) == f(want.Estimate) && f(got.CILow) == f(want.CILow) && f(got.CIHigh) == f(want.CIHigh) &&
		f(got.RelErr) == f(want.RelErr) && f(got.ObservedMax) == f(want.ObservedMax) && f(got.SigmaSq) == f(want.SigmaSq) &&
		got.HyperSamples == want.HyperSamples && got.Units == want.Units && got.Converged == want.Converged
}

// checkMix counts every scheduled job as attempted, and as failed every
// job that was refused, failed, or returned a result other than the
// library's.
func (rep *report) checkMix(mr *mixRun, lib *libRef) {
	for _, j := range mr.jobs {
		rep.attempted++
		switch {
		case j.overload:
			rep.failOp("%s %s: %s", kindName(j.kind), j.id, j.err)
		case !j.ok:
			rep.fail("%s %s: %s", kindName(j.kind), j.id, j.err)
		case !sameBits(j.res, lib.results[j.kind][j.idx]):
			rep.fail("%s %s: result differs from the library run of the same request", kindName(j.kind), j.id)
			j.ok = false
		}
	}
}

// mixMetrics sets the end-to-end metrics of an open-loop pass.
func (rep *report) mixMetrics(mr *mixRun, lib *libRef) {
	var lat, exec dist
	units := 0
	seen := map[int]bool{}
	var errSum float64
	miss := 0
	truth := lib.pop.TrueMax()
	for _, j := range mr.jobs {
		if !j.ok {
			continue
		}
		lat = append(lat, j.latency)
		exec = append(exec, j.status.Finished.Sub(*j.status.Started))
		units += j.res.Units
		if j.kind == kindPop && !seen[j.idx] {
			seen[j.idx] = true
			e := relErr(j.res.Estimate, truth)
			errSum += e
			if e > 0.05 {
				miss++
			}
		}
	}
	window := mr.end.Sub(mr.start).Seconds()
	rep.set("est_per_s", float64(len(lat))/window)
	rep.set("jobs_per_s", float64(len(lat))/window)
	rep.set("units_per_s", float64(units)/window)
	rep.timings(exec, lat, len(mr.jobs), sloLimitMS[wService])
	if len(seen) > 0 {
		rep.set("rel_err_mean_pct", 100*errSum/float64(len(seen)))
		rep.set("miss5_frac", float64(miss)/float64(len(seen)))
	}
	rep.linef("accuracy over %d distinct C432 population requests against the population's exhaustive TrueMax %.6f mW", len(seen), truth)
	rep.mixLines(mr)
}

// mixLayers sets the service layer metrics of a traced pass.
func (rep *report) mixLayers(mr *mixRun) {
	var wait, exec dist
	hits, popJobs, done := 0, 0, 0
	for _, j := range mr.jobs {
		if !j.ok {
			continue
		}
		done++
		wait = append(wait, j.status.Started.Sub(j.status.Created))
		exec = append(exec, j.status.Finished.Sub(*j.status.Started))
		if j.kind == kindPop {
			popJobs++
			if j.status.CacheHit {
				hits++
			}
		}
	}
	p := func(d dist, q float64) float64 { v, _ := d.pct(q); return v }
	rep.set("service.submit_ms_p50", p(mr.submits, 0.5))
	rep.set("service.poll_ms_p50", p(mr.pollsRT, 0.5))
	rep.set("service.polls_per_job", float64(len(mr.pollsRT))/math.Max(float64(done), 1))
	rep.set("service.queue_wait_ms_p50", p(wait, 0.5))
	rep.set("service.queue_wait_ms_p99", p(wait, 0.99))
	rep.set("service.exec_ms_p50", p(exec, 0.5))
	rep.set("service.journal_bytes_per_job", float64(mr.journalBytes)/float64(len(mr.jobs)))
	rep.set("service.cache_hit_frac", float64(hits)/math.Max(float64(popJobs), 1))
	rep.set("service.refused", float64(mr.refused))
	rep.set("service.gen_lag_ms_max", float64(mr.maxLag)/1e6)
	rep.lines = append(rep.lines, wait.pctLine("queue wait p99", 0.99))
	rep.mixLines(mr)
}

func (rep *report) mixLines(mr *mixRun) {
	rep.linef("open loop: %d jobs at %d/s, %d refused, generator lag max %.3f ms, %d polls",
		len(mr.jobs), serviceRate, mr.refused, float64(mr.maxLag)/1e6, len(mr.pollsRT))
}
