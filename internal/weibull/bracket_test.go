package weibull

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// doublingBracket is the plain search that Fitter.bracket must reproduce:
// double hi upward from h0 until f(hi) ≤ 0, failing past bracketCap.
func doublingBracket(f func(float64) float64, h0 float64) (hi, fhi float64, ok bool) {
	hi = h0
	for f(hi) > 0 {
		hi *= 2
		if hi > bracketCap {
			return 0, 0, false
		}
	}
	return hi, f(hi), true
}

// TestWarmBracketMatchesDoubling: from any hint, the warm bracket search
// lands on the same hi and the same f(hi) bits as the doubling search,
// and fails exactly when it fails. Samples are random reverse-Weibull
// and Gumbel draws; μ offsets span the fit grid's 1e-6…1e4 spread range
// and beyond it, where the root passes the cap; hints are 0, tiny, at
// the root, just off it, far above it and past the cap.
func TestWarmBracketMatchesDoubling(t *testing.T) {
	rng := stats.NewRNG(20261018)
	var samples [][]float64
	for _, m := range []int{3, 10, 50} {
		for _, a := range []float64{1.5, 3, 6} {
			xs := make([]float64, m)
			d := Dist{Alpha: a, Beta: 1, Mu: 2}
			for i := range xs {
				xs[i] = d.Rand(rng)
			}
			samples = append(samples, xs)
		}
		samples = append(samples, gumbelSample(m, uint64(500+m)))
	}
	var offsets []float64
	for off := 1e-6; off <= 1e4; off *= 3.7 {
		offsets = append(offsets, off)
	}
	// Far past the grid the root grows roughly like the offset; a fine
	// sweep there puts roots just below, at and just above the cap.
	for off := 1e6; off <= 1e12; off *= 1.3 {
		offsets = append(offsets, off)
	}
	var ft Fitter
	var cases, fails, warmUp, warmDown int
	for _, xs := range samples {
		xmax, xmin := xs[0], xs[0]
		for _, x := range xs {
			xmax, xmin = math.Max(xmax, x), math.Min(xmin, x)
		}
		y := make([]float64, len(xs))
		for _, off := range offsets {
			for i, x := range xs {
				y[i] = xmax + off*(xmax-xmin) - x
			}
			for _, am := range []float64{1e-6, 2, 5, 4e8, 6e8} {
				// Prepare the sweep for this μ and find the root.
				root, _, ok := ft.shapeMLE(y, am)
				if !ok || root == am {
					root = 3 // no interior root: any hint will do
				}
				h0 := math.Max(2*am, 1)
				wantHi, wantF, wantOK := doublingBracket(ft.shapeF, h0)
				for _, hint := range []float64{0, 1e-300, root, root * (1 - 1e-12), root * (1 + 1e-12),
					root / 2, 2 * root, 1e3 * root, 2e9, math.Inf(1)} {
					ft.hint = hint
					hi, fhi, ok := ft.bracket(h0)
					cases++
					if ok != wantOK || math.Float64bits(hi) != math.Float64bits(wantHi) ||
						math.Float64bits(fhi) != math.Float64bits(wantF) {
						t.Fatalf("m=%d off=%g alphaMin=%g hint=%g: warm (%v, %v, %v), doubling (%v, %v, %v)",
							len(xs), off, am, hint, hi, fhi, ok, wantHi, wantF, wantOK)
					}
					switch {
					case !ok:
						fails++
					case hint > h0 && hi > h0:
						warmDown++
					case hi > h0:
						warmUp++
					}
				}
			}
		}
	}
	t.Logf("%d cases: %d past the cap, %d warm starts above h0, %d climbs from h0", cases, fails, warmDown, warmUp)
	if fails == 0 || warmDown == 0 || warmUp == 0 {
		t.Errorf("coverage: %d failures, %d warm starts, %d climbs; each must be > 0", fails, warmDown, warmUp)
	}
}
