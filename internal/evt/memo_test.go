package evt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
)

// resetQuantileMemo empties the process-wide quantile memo so a test sees
// it cold. Tests in this package do not run in parallel, so no fold races
// the reset.
func resetQuantileMemo() {
	for i := range quantileMemo {
		for k := range quantileMemo[i].byK {
			quantileMemo[i].byK[k].Store(nil)
		}
		quantileMemo[i].level.Store(0)
	}
}

// memoStats counts the claimed confidence levels and the stored entries.
func memoStats() (levels, entries int) {
	for i := range quantileMemo {
		if quantileMemo[i].level.Load() != 0 {
			levels++
		}
		for k := range quantileMemo[i].byK {
			if quantileMemo[i].byK[k].Load() != nil {
				entries++
			}
		}
	}
	return levels, entries
}

// directFold is foldInterval as it reads without the memo: every quantile
// inverted afresh through the stats package's public entry points.
func directFold(cfg Config, estimates []float64) Result {
	var res Result
	k := len(estimates)
	mean, sd := stats.MeanStd(estimates)
	tq := stats.TwoSidedT(cfg.Confidence, float64(k-1))
	half := tq * sd / math.Sqrt(float64(k))
	res.Estimate = mean
	res.SigmaSq = sd * sd
	res.SigmaSqLow, res.SigmaSqHi = stats.VarianceCI(res.SigmaSq, k, cfg.Confidence)
	res.CILow = mean - half
	res.CIHigh = mean + half
	if mean != 0 {
		res.RelErr = half / math.Abs(mean)
	} else {
		res.RelErr = math.Inf(1)
	}
	res.HyperSamples = k
	res.Converged = res.RelErr <= cfg.Epsilon
	return res
}

func sameFoldBits(a, b Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Estimate, b.Estimate) && eq(a.CILow, b.CILow) && eq(a.CIHigh, b.CIHigh) &&
		eq(a.RelErr, b.RelErr) && eq(a.SigmaSq, b.SigmaSq) && eq(a.SigmaSqLow, b.SigmaSqLow) &&
		eq(a.SigmaSqHi, b.SigmaSqHi) && a.HyperSamples == b.HyperSamples && a.Converged == b.Converged
}

func memoEstimates(n int) []float64 {
	rng := stats.NewRNG(99)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 40 + 3*rng.Float64()
	}
	return xs
}

// TestIntervalMemoMatchesDirect: a memoized fold — on the miss that fills
// the entry and on the hit that reads it — equals the direct
// TwoSidedT/VarianceCI fold bit for bit, for k = 2…200 at the usual
// confidence levels.
func TestIntervalMemoMatchesDirect(t *testing.T) {
	resetQuantileMemo()
	defer resetQuantileMemo()
	estimates := memoEstimates(200)
	for _, l := range []float64{0.8, 0.9, 0.95, 0.99} {
		cfg := Config{Confidence: l, Epsilon: 0.01}
		for k := 2; k <= 200; k++ {
			want := directFold(cfg, estimates[:k])
			for pass := 0; pass < 2; pass++ {
				var got Result
				foldInterval(cfg, &got, estimates[:k])
				if !sameFoldBits(got, want) {
					t.Fatalf("l=%v k=%d pass %d: memoized fold %+v, direct %+v", l, k, pass, got, want)
				}
			}
		}
	}
	if levels, entries := memoStats(); levels != 4 || entries != 4*199 {
		t.Errorf("memo holds %d levels and %d entries, want 4 and %d", levels, entries, 4*199)
	}
}

// TestIntervalMemoBounded: a NaN confidence claims no slot, and folding at
// many distinct confidences and at k past the memo's range keeps the memo
// within its bound while every fold still equals the direct one.
func TestIntervalMemoBounded(t *testing.T) {
	resetQuantileMemo()
	defer resetQuantileMemo()
	estimates := memoEstimates(300)
	intervalQuantiles(math.NaN(), 5)
	if levels, _ := memoStats(); levels != 0 {
		t.Errorf("a NaN confidence claimed %d level slots", levels)
	}
	for i := 0; i < 100; i++ {
		cfg := Config{Confidence: 0.5 + float64(i)/250, Epsilon: 0.01}
		for _, k := range []int{2, 3, 10, 57, memoMaxK, memoMaxK + 1, 300} {
			var got Result
			foldInterval(cfg, &got, estimates[:k])
			if want := directFold(cfg, estimates[:k]); !sameFoldBits(got, want) {
				t.Fatalf("l=%v k=%d: memoized fold %+v, direct %+v", cfg.Confidence, k, got, want)
			}
		}
	}
	levels, entries := memoStats()
	if levels > memoLevels || entries > memoLevels*5 {
		t.Errorf("memo grew to %d levels and %d entries, bound is %d levels of 5 k values", levels, entries, memoLevels)
	}
}

// TestIntervalMemoConcurrent: goroutines folding at once — more distinct
// confidences than level slots, so slot claims race too — all read the
// direct values. Run it under -race.
func TestIntervalMemoConcurrent(t *testing.T) {
	resetQuantileMemo()
	defer resetQuantileMemo()
	estimates := memoEstimates(120)
	levels := []float64{0.8, 0.85, 0.9, 0.95, 0.975, 0.99}
	want := make([][]Result, len(levels))
	for i, l := range levels {
		want[i] = make([]Result, len(estimates)+1)
		for k := 2; k <= len(estimates); k++ {
			want[i][k] = directFold(Config{Confidence: l, Epsilon: 0.01}, estimates[:k])
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for j := range levels {
					i := (j + g) % len(levels)
					cfg := Config{Confidence: levels[i], Epsilon: 0.01}
					for k := 2; k <= len(estimates); k++ {
						var got Result
						foldInterval(cfg, &got, estimates[:k])
						if !sameFoldBits(got, want[i][k]) {
							errs <- "concurrent fold diverged from direct"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n, _ := memoStats(); n != memoLevels {
		t.Errorf("%d level slots claimed, want all %d", n, memoLevels)
	}
}
