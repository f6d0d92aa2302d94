package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/evt"
)

// TestJournalRoundTrip appends records through the journal and reads
// them back byte-faithfully: every field a replay depends on — request,
// checkpoint (including the exact RNG state and float64 estimates),
// terminal state and result — must survive the trip.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, recs, skipped, err := newJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || skipped != 0 {
		t.Fatalf("fresh dir: %d records, %d skipped; want 0/0", len(recs), skipped)
	}
	if err := jn.compact(nil); err != nil { // opens the append handle
		t.Fatal(err)
	}

	req := smallJob(7)
	cp := &evt.Checkpoint{
		Estimates:   []float64{1.25, 1.3437500001, 1.2999999999999998},
		Units:       900,
		ObservedMax: 1.1875,
		RNG:         [4]uint64{0xdeadbeef, 42, 1 << 63, 7},
		SimNS:       12345,
		FitNS:       678,
	}
	res := &journalResult{Estimate: 1.31, CILow: 1.2, CIHigh: 1.42, RelErr: 0.04,
		HyperSamples: 3, Units: 900, Converged: true, SigmaSq: 0.001,
		SigmaSqLow: 0.0005, SigmaSqHi: 0.002, ObservedMax: 1.1875, SimNS: 12345, FitNS: 678}
	now := time.Now().UTC()
	want := []record{
		{Type: recSubmit, Job: "job-000001", Time: now, Req: &req},
		{Type: recStart, Job: "job-000001", Time: now},
		{Type: recCheckpoint, Job: "job-000001", Time: now, Checkpoint: cp},
		{Type: recTerminal, Job: "job-000001", Time: now, State: StateDone, Result: res},
	}
	for _, rec := range want {
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	got, skipped, err := readRecords(jn.path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(*got[0].Req, req) {
		t.Errorf("request did not round-trip: %+v != %+v", *got[0].Req, req)
	}
	gcp := got[2].Checkpoint
	if gcp == nil || gcp.RNG != cp.RNG || gcp.Units != cp.Units ||
		gcp.ObservedMax != cp.ObservedMax || gcp.SimNS != cp.SimNS {
		t.Errorf("checkpoint did not round-trip: %+v != %+v", gcp, cp)
	}
	for i, v := range gcp.Estimates {
		if v != cp.Estimates[i] {
			t.Errorf("estimate %d: %v != %v (float64 must round-trip bit-exactly)", i, v, cp.Estimates[i])
		}
	}
	if *got[3].Result != *res {
		t.Errorf("result did not round-trip: %+v != %+v", *got[3].Result, res)
	}
}

// TestJournalTornTail corrupts the journal the way a crash mid-write
// does — a partial last line — plus a rotted line in the middle, and
// expects replay to skip both and keep everything else.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	jn, _, _, err := newJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.compact(nil); err != nil {
		t.Fatal(err)
	}
	req := smallJob(9)
	good := []record{
		{Type: recSubmit, Job: "job-000001", Time: time.Now(), Req: &req},
		{Type: recStart, Job: "job-000001", Time: time.Now()},
	}
	for _, rec := range good {
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	raw, err := os.ReadFile(jn.path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Rot the middle line and tear the tail.
	corrupted := lines[0] + "{\"type\":###corrupt###}\n" + lines[1] + `{"type":"checkpoint","job":"job-0`
	if err := os.WriteFile(jn.path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := readRecords(jn.path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (one rotted line, one torn tail)", skipped)
	}
	if len(recs) != 2 || recs[0].Type != recSubmit || recs[1].Type != recStart {
		t.Fatalf("surviving records = %+v, want the submit and start", recs)
	}
}

// TestJournalCompaction restarts a Manager over a journal that has
// accumulated per-hyper-sample checkpoints and expects the rewritten
// file to hold only the snapshot: one submit + one terminal/checkpoint
// record per job, with evicted jobs gone entirely.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Submit(smallJob(81))
	if err != nil {
		t.Fatal(err)
	}
	waitManagerTerminal(t, mgr, id)
	shutdownManager(t, mgr)

	before, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) <= 3 {
		t.Fatalf("pre-compaction journal has %d records, expected submit+start+checkpoints+terminal", len(before))
	}

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)

	after, skipped, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("compacted journal has %d unparsable lines", skipped)
	}
	// One submit + one start + one terminal for the finished job.
	if len(after) != 3 {
		t.Errorf("compacted journal has %d records, want 3: %+v", len(after), after)
	}
	st, err := mgr2.Status(id)
	if err != nil {
		t.Fatalf("restored job missing: %v", err)
	}
	if st.State != StateDone {
		t.Errorf("restored job state = %s, want done", st.State)
	}
	res1, err1 := mgr.Result(id)
	res2, err2 := mgr2.Result(id)
	if err1 != nil || err2 != nil {
		t.Fatalf("results: %v / %v", err1, err2)
	}
	if res1 != res2 {
		t.Errorf("restored result differs:\n  live    %+v\n  replay  %+v", res1, res2)
	}
}

// TestJournalReplaySubmitAfterStart replays hand-written journals whose
// submit record landed after the job's other records — the order a
// worker produces when it journals start (and, with a slow fsync,
// checkpoints or even the terminal record) before SubmitAs journals the
// submit. The finished job must come back with its journaled result,
// not be re-run, and the live one must resume from its journaled
// checkpoint and finish bit-identical to an uninterrupted run.
func TestJournalReplaySubmitAfterStart(t *testing.T) {
	// A genuine mid-run checkpoint of the live job: run it journaled and
	// keep its first checkpoint record.
	live := smallJob(83)
	src := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: src})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Submit(live)
	if err != nil {
		t.Fatal(err)
	}
	waitManagerTerminal(t, mgr, id)
	baseline, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	shutdownManager(t, mgr)
	srcRecs, _, err := readRecords(filepath.Join(src, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var cp *evt.Checkpoint
	for _, rec := range srcRecs {
		if rec.Type == recCheckpoint {
			cp = rec.Checkpoint
			break
		}
	}
	if cp == nil || cp.Units >= baseline.Units {
		t.Fatalf("no mid-run checkpoint journaled (%d records)", len(srcRecs))
	}

	finished := smallJob(84)
	t0 := time.Date(2026, 4, 1, 9, 0, 0, 0, time.UTC)
	res := &journalResult{Estimate: 12.5, CILow: 11.5, CIHigh: 13.5, RelErr: 0.04,
		HyperSamples: 6, Units: 1800, Converged: true}
	dir := t.TempDir()
	jn, _, _, err := newJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.compact(nil); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []record{
		{Type: recStart, Job: "job-000001", Time: t0.Add(time.Second)},
		{Type: recCheckpoint, Job: "job-000001", Time: t0.Add(2 * time.Second), Checkpoint: cp},
		{Type: recTerminal, Job: "job-000001", Time: t0.Add(3 * time.Second), State: StateDone, Result: res},
		{Type: recSubmit, Job: "job-000001", Time: t0, Req: &finished},
		{Type: recStart, Job: "job-000002", Time: t0.Add(5 * time.Second)},
		{Type: recCheckpoint, Job: "job-000002", Time: t0.Add(6 * time.Second), Checkpoint: cp},
		{Type: recSubmit, Job: "job-000002", Time: t0.Add(4 * time.Second), Req: &live},
	} {
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir, RetainFor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)
	mgr2.mu.Lock()
	resume := mgr2.jobs["job-000002"].resume
	mgr2.mu.Unlock()
	if resume == nil || resume.Units != cp.Units || resume.RNG != cp.RNG {
		t.Errorf("live job resumes from %+v, want the journaled checkpoint at %d units", resume, cp.Units)
	}
	if got := mgr2.Stats().JobsRecovered; got != 1 {
		t.Errorf("jobs recovered = %d, want 1 (the finished job must not re-run)", got)
	}
	st, err := mgr2.Status("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("finished job restored as %s, want done", st.State)
	}
	got, err := mgr2.Result("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != res.Estimate || got.Units != res.Units {
		t.Errorf("finished job result = %+v, want the journaled estimate %v / %d units", got, res.Estimate, res.Units)
	}
	if st := waitManagerTerminal(t, mgr2, "job-000002"); st.State != StateDone {
		t.Fatalf("live job = %s (%s), want done", st.State, st.Error)
	}
	resumed, err := mgr2.Result("job-000002")
	if err != nil {
		t.Fatal(err)
	}
	if kernel(resumed) != kernel(baseline) {
		t.Errorf("resumed job diverged:\n  resumed  %+v\n  baseline %+v", kernel(resumed), kernel(baseline))
	}
}

// waitManagerTerminal polls the manager directly (no HTTP) until the job
// reaches a terminal state.
func waitManagerTerminal(t *testing.T, mgr *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := mgr.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func shutdownManager(t *testing.T, mgr *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
