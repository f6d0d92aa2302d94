package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/evt"
	"repro/internal/stats"
)

// poolSeeds returns the fixed pool of estimator seeds.
func poolSeeds() []uint64 {
	rng := stats.NewRNG(poolBase)
	out := make([]uint64, poolSize)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// window returns the pool indices a --seed selects: windowLen
// consecutive entries starting at a seed-derived offset.
func window(seed uint64) []int {
	start := stats.NewRNG(seed).Intn(poolSize)
	out := make([]int, windowLen)
	for i := range out {
		out[i] = (start + i) % poolSize
	}
	return out
}

// digest fingerprints the statistical fields of a result — the fields
// the determinism contract promises bit for bit.
func digest(r evt.Result) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range []float64{r.Estimate, r.CILow, r.CIHigh, r.RelErr, r.SigmaSq, r.SigmaSqLow, r.SigmaSqHi, r.ObservedMax} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	conv := uint64(0)
	if r.Converged {
		conv = 1
	}
	for _, v := range []uint64{uint64(r.HyperSamples), uint64(r.Units), conv} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:6])
}

// relErr is |estimate − truth| / truth.
func relErr(estimate, truth float64) float64 { return math.Abs(evt.RelativeError(estimate, truth)) }

// dist is a sample of durations with nearest-rank percentiles.
type dist []time.Duration

// pct returns the nearest-rank p-quantile (0 < p < 1) in milliseconds
// and how many samples lie beyond it.
func (d dist) pct(p float64) (ms float64, beyond int) {
	if len(d) == 0 {
		return 0, 0
	}
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k]) / 1e6, len(s) - 1 - k
}

// pctLine renders a percentile with its sample count; a percentile with
// fewer than ten samples beyond it is marked.
func (d dist) pctLine(name string, p float64) string {
	ms, beyond := d.pct(p)
	flag := ""
	if beyond < 10 {
		flag = "  (FEWER THAN 10 SAMPLES BEYOND)"
	}
	return fmt.Sprintf("%-26s %12.4f ms   n=%d beyond=%d highest-supported=p%.1f%s",
		name, ms, len(d), beyond, 100*maxPct(len(d)), flag)
}

// maxPct is the highest percentile with at least ten samples beyond it.
func maxPct(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 1 - 10/float64(n)
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocCounter measures heap allocation with runtime/metrics deltas in
// a quiesced section: the caller runs nothing else, no profiler is on,
// and the GC is off while counting. runtime/metrics folds per-P
// allocation counts in lazily, so one call's delta can be off by a
// partly used span; callers count over many calls and divide.
type allocCounter struct {
	samples [2]metrics.Sample
	gcPct   int
}

func startAllocCount() *allocCounter {
	runtime.GC()
	a := &allocCounter{}
	a.samples[0].Name = "/gc/heap/allocs:bytes"
	a.samples[1].Name = "/gc/heap/allocs:objects"
	a.gcPct = debug.SetGCPercent(-1)
	metrics.Read(a.samples[:])
	return a
}

// stop returns bytes and objects allocated since start.
func (a *allocCounter) stop() (bytes, objects uint64) {
	before := [2]uint64{a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()}
	metrics.Read(a.samples[:])
	debug.SetGCPercent(a.gcPct)
	return a.samples[0].Value.Uint64() - before[0], a.samples[1].Value.Uint64() - before[1]
}
