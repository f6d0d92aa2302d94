package weibull

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The golden table pins the profile-likelihood fit to the last bit: for
// each fixed sample it stores math.Float64bits of α, β, μ and LogLik and
// the returned error. Any change to the fit's arithmetic — summation
// order, root-solver path, bracket points — shows up here, so a speed-up
// that claims "same bits" is checked rather than asserted.
//
// Regenerate (only when the fit is meant to change) with
//
//	go test ./internal/weibull -run TestFitGolden -update-golden
const goldenPath = "testdata/fit_golden.txt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from the current fit")

type goldenCase struct {
	name     string
	alphaMin float64
	xs       []float64
}

func rwSample(d Dist, m int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	xs := make([]float64, m)
	for i := range xs {
		xs[i] = d.Rand(rng)
	}
	return xs
}

func gumbelSample(m int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	xs := make([]float64, m)
	for i := range xs {
		u := rng.Float64()
		if u == 0 {
			u = 0.5
		}
		xs[i] = -math.Log(-math.Log(u))
	}
	return xs
}

// goldenCases covers interior fits, fits clamped at the α boundary,
// near-Gumbel data without an interior maximum, degenerate samples, ties
// at either end, and alphaMin ∈ {0, 2, 5}.
func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(name string, alphaMin float64, xs []float64) {
		cs = append(cs, goldenCase{name: name, alphaMin: alphaMin, xs: xs})
	}
	// The estimator's hot case: m = 10 maxima, α ≈ 4, alphaMin = 2.
	for s := uint64(1); s <= 12; s++ {
		add(fmt.Sprintf("paper-a4-m10-s%d", s), 2, rwSample(Dist{Alpha: 4, Beta: 1, Mu: 10}, 10, s))
	}
	// Interior fits over shapes, sizes and the unconstrained ablation.
	for _, a := range []float64{2.5, 4, 8} {
		for _, m := range []int{10, 25} {
			for _, am := range []float64{0, 2} {
				add(fmt.Sprintf("rw-a%g-m%d-am%g", a, m, am), am,
					rwSample(Dist{Alpha: a, Beta: 2, Mu: 3}, m, uint64(100+10*m)+uint64(a)))
			}
		}
	}
	add("rw-a4-m200-am2", 2, rwSample(Dist{Alpha: 4, Beta: 1, Mu: 10}, 200, 150))
	// Shape clamped at the boundary: α < alphaMin in the data.
	for s := uint64(1); s <= 3; s++ {
		add(fmt.Sprintf("clamp-a1.5-am2-s%d", s), 2, rwSample(Dist{Alpha: 1.5, Beta: 1, Mu: 5}, 10, 200+s))
		add(fmt.Sprintf("clamp-a3-am5-s%d", s), 5, rwSample(Dist{Alpha: 3, Beta: 1, Mu: 5}, 10, 210+s))
	}
	// Near-Gumbel data: mostly ErrNoInteriorMax.
	for i, am := range []float64{0, 2, 5} {
		add(fmt.Sprintf("gumbel-m10-am%g", am), am, gumbelSample(10, uint64(300+i)))
		add(fmt.Sprintf("gumbel-m50-am%g", am), am, gumbelSample(50, uint64(310+i)))
	}
	// Degenerate and edge-shaped samples.
	add("degen-short", 2, []float64{1, 2})
	add("degen-constant", 2, []float64{3, 3, 3, 3})
	add("two-values", 2, []float64{1, 1, 2})
	add("arith-0-9", 2, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	add("ties-at-max", 2, []float64{1, 2, 3, 4, 5, 6, 7, 9, 9, 9})
	add("ties-at-min", 5, []float64{0, 0, 0, 4, 5, 6, 7, 8, 8.5, 9})
	add("large-offset", 2, func() []float64 {
		xs := rwSample(Dist{Alpha: 4, Beta: 1, Mu: 0}, 10, 400)
		for i := range xs {
			xs[i] += 1e6
		}
		return xs
	}())
	add("tiny-spread", 2, func() []float64 {
		xs := rwSample(Dist{Alpha: 4, Beta: 1, Mu: 0}, 10, 401)
		for i := range xs {
			xs[i] = 7 + xs[i]*1e-9
		}
		return xs
	}())
	add("negative-wide", 0, rwSample(Dist{Alpha: 3, Beta: 1e-6, Mu: -50}, 12, 402))
	return cs
}

type goldenRow struct {
	sample                  uint64
	alpha, beta, mu, loglik uint64
	err                     string
}

func sampleHash(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func errName(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrDegenerate):
		return "degenerate"
	case errors.Is(err, ErrNoInteriorMax):
		return "nointerior"
	}
	return strconv.Quote(err.Error())
}

func rowOf(xs []float64, fit FitResult, err error) goldenRow {
	return goldenRow{
		sample: sampleHash(xs),
		alpha:  math.Float64bits(fit.Alpha),
		beta:   math.Float64bits(fit.Beta),
		mu:     math.Float64bits(fit.Mu),
		loglik: math.Float64bits(fit.LogLik),
		err:    errName(err),
	}
}

func (r goldenRow) String() string {
	return fmt.Sprintf("%016x %016x %016x %016x %016x %s", r.sample, r.alpha, r.beta, r.mu, r.loglik, r.err)
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad golden line %q", line)
		}
		rows[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFitGolden reproduces the committed table bit for bit. The table
// was recorded on amd64; other architectures may round Exp, Log and
// fused multiply-adds differently, so there only the Fitter-reuse check
// below applies.
func TestFitGolden(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# name sample_fnv64a alpha beta mu loglik err (math.Float64bits, hex; amd64)\n")
		for _, c := range cases {
			fit, err := FitMLEShape(c.xs, c.alphaMin)
			fmt.Fprintf(&sb, "%s %s\n", c.name, rowOf(c.xs, fit, err))
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits recorded on amd64, running on %s", runtime.GOARCH)
	}
	want := readGolden(t)
	if len(want) != len(cases) {
		t.Errorf("golden table has %d rows, test defines %d cases", len(want), len(cases))
	}
	for _, c := range cases {
		fit, err := FitMLEShape(c.xs, c.alphaMin)
		got := rowOf(c.xs, fit, err)
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no golden row", c.name)
			continue
		}
		if wantHash := strings.Fields(w)[0]; wantHash != fmt.Sprintf("%016x", got.sample) {
			t.Errorf("%s: sample generator drifted (hash %016x, golden %s)", c.name, got.sample, wantHash)
			continue
		}
		if got.String() != w {
			t.Errorf("%s: fit bits changed\n got  %s\n want %s", c.name, got, w)
		}
	}
}

// TestFitterReuseBitIdentical: a Fitter carries warm state from fit to
// fit (scratch buffers, the derivative and Σyᵢ^α caches, the bracket
// hint). None of it may leak into a result: every sample fits to the same
// bits with a fresh Fitter and with one Fitter that has fitted every
// other sample first, in forward and in reverse order.
func TestFitterReuseBitIdentical(t *testing.T) {
	cases := goldenCases()
	fresh := make([]goldenRow, len(cases))
	for i, c := range cases {
		var ft Fitter
		fit, err := ft.FitMLEShape(c.xs, c.alphaMin)
		fresh[i] = rowOf(c.xs, fit, err)
	}
	check := func(order string, idx []int) {
		var ft Fitter
		for _, i := range idx {
			c := cases[i]
			fit, err := ft.FitMLEShape(c.xs, c.alphaMin)
			if got := rowOf(c.xs, fit, err); got != fresh[i] {
				t.Errorf("%s %s: warm Fitter diverged from fresh\n got  %s\n want %s", order, c.name, got, fresh[i])
			}
		}
	}
	fwd := make([]int, len(cases))
	rev := make([]int, len(cases))
	for i := range cases {
		fwd[i] = i
		rev[i] = len(cases) - 1 - i
	}
	check("forward", fwd)
	check("reverse", rev)
}

// TestFitterAllocFree holds the Fitter to its documented steady state: once
// its scratch is warm for a sample size, a fit allocates nothing.
func TestFitterAllocFree(t *testing.T) {
	var samples [][]float64
	for s := uint64(1); s <= 8; s++ {
		samples = append(samples, rwSample(Dist{Alpha: 4, Beta: 1, Mu: 10}, 10, s))
	}
	var ft Fitter
	for _, xs := range samples {
		ft.FitMLEShape(xs, DefaultAlphaMin)
	}
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		ft.FitMLEShape(samples[i%len(samples)], DefaultAlphaMin)
		i++
	}); allocs != 0 {
		t.Errorf("warm FitMLEShape allocates %v times per fit, want 0", allocs)
	}
}

var benchFit FitResult

// BenchmarkFitMLE times one warm-Fitter fit of an m = 10 sample under the
// paper's α ≥ 2 constraint, cycling over 64 fixed α = 4 samples.
func BenchmarkFitMLE(b *testing.B) {
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = rwSample(Dist{Alpha: 4, Beta: 1, Mu: 10}, 10, uint64(1000+i))
	}
	var ft Fitter
	for _, xs := range samples {
		ft.FitMLEShape(xs, DefaultAlphaMin)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFit, _ = ft.FitMLEShape(samples[i%len(samples)], DefaultAlphaMin)
	}
}
