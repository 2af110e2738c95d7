package core

import (
	"fmt"
	"math"
	"testing"

	"streampca/internal/eig"
	"streampca/internal/mat"
	"streampca/internal/robust"
	"streampca/internal/spectra"
)

// warmupRows returns n rows of a warm-up buffer: gappy SDSS-like spectra
// (30% of the rows gappy, NaN in their missing bins, 2% contaminated) when
// gappy, else the complete Gaussian signal stream.
func warmupRows(tb testing.TB, d, n int, gappy bool) [][]float64 {
	tb.Helper()
	xs := make([][]float64, n)
	if gappy {
		gen, err := spectra.NewGenerator(spectra.GeneratorConfig{Grid: spectra.SDSSGrid(d), Rank: 4, GapRate: 0.3, OutlierRate: 0.02, Seed: 3})
		if err != nil {
			tb.Fatal(err)
		}
		for i := range xs {
			xs[i] = gen.Next().Flux
		}
		return xs
	}
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: d, Signals: 5, OutlierRate: 0.02, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range xs {
		xs[i], _ = gen.Next()
	}
	return xs
}

// BenchmarkWarmupFit times one engine's warm-up fit, the InitSize-th row
// that seeds the eigensystem (k = 5, InitSize 20), on a gappy d=1000 buffer
// and a complete d=400 one.
func BenchmarkWarmupFit(b *testing.B) {
	for _, tc := range []struct {
		d     int
		gappy bool
	}{{1000, true}, {400, false}} {
		b.Run(fmt.Sprintf("d-%d/gappy-%v", tc.d, tc.gappy), func(b *testing.B) {
			cfg := Config{Dim: tc.d, Components: 5, Alpha: 1 - 1.0/5000}
			en, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			xs := warmupRows(b, tc.d, en.Config().InitSize, tc.gappy)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				en, _ = NewEngine(cfg)
				for r := range xs[:len(xs)-1] {
					en.ObserveAuto(xs[r])
				}
				b.StartTimer()
				if _, err := en.ObserveAuto(xs[len(xs)-1]); err != nil || !en.Ready() {
					b.Fatal(err)
				}
			}
		})
	}
}

// leftSingularThinSVD is the former route of leftSingular, kept as its
// oracle: the centered observations as the columns of a d×n matrix (or the
// rows of an n×d one when n ≥ d) through eig.ThinSVD — the full Gram, every
// left vector — and the top k sliced off as a d×k matrix.
func leftSingularThinSVD(xs [][]float64, mu []float64, k int) (*mat.Dense, []float64) {
	n, d := len(xs), len(mu)
	y := make([]float64, d)
	if n >= d {
		m := mat.NewDense(n, d)
		for i, x := range xs {
			mat.SubTo(m.Row(i), x, mu)
		}
		dec, _ := eig.ThinSVD(m)
		return dec.V.SliceCols(0, k), dec.S
	}
	m := mat.NewDense(d, n)
	for i, x := range xs {
		m.SetCol(i, mat.SubTo(y, x, mu))
	}
	dec, _ := eig.ThinSVD(m)
	return dec.U.SliceCols(0, k), dec.S
}

// robustFitThinSVD is robustFit on the former ThinSVD route — a d×k basis,
// residuals by MulVecT, the scaled rows re-centred by leftSingularThinSVD —
// run for exactly iters reweighting passes, so that it can be compared with
// a fit at the pass its stopping rule chose. It returns the mean, basis,
// eigenvalues and σ² of the fit.
func robustFitThinSVD(xs [][]float64, p, k int, rho robust.Rho, delta float64, iters int) ([]float64, *mat.Dense, []float64, float64) {
	n, d := len(xs), len(xs[0])
	mu := make([]float64, d)
	for _, x := range xs {
		mat.Axpy(1, x, mu)
	}
	mat.Scale(1/float64(n), mu)
	basis, svals := leftSingularThinSVD(xs, mu, k)
	vals := make([]float64, k)
	r2, w, y, coef := make([]float64, n), make([]float64, n), make([]float64, d), make([]float64, k)
	sigma2 := 0.0
	for iter := 0; iter < iters; iter++ {
		for i, x := range xs {
			mat.SubTo(y, x, mu)
			mat.MulVecT(coef, basis, y)
			ri := mat.Dot(y, y)
			for j := 0; j < p; j++ {
				ri -= coef[j] * coef[j]
			}
			r2[i] = max(ri, 0)
		}
		sigma2, _ = robust.MScale(rho, r2, delta, sigma2)
		robust.Weights(rho, r2, sigma2, w)
		var wsum, qsum float64
		next := make([]float64, d)
		for i, x := range xs {
			wsum += w[i]
			qsum += w[i] * r2[i]
			mat.Axpy(w[i], x, next)
		}
		mat.Scale(1/wsum, next)
		mu = next
		if qsum <= 0 {
			qsum = wsum * sigma2
		}
		var scaled [][]float64
		for i, x := range xs {
			if w[i] != 0 {
				row := mat.SubTo(make([]float64, d), x, mu)
				mat.Scale(math.Sqrt(w[i]), row)
				mat.Axpy(1, mu, row)
				scaled = append(scaled, row)
			}
		}
		basis, svals = leftSingularThinSVD(scaled, mu, k)
		for j := range vals {
			vals[j] = sigma2 * svals[j] * svals[j] / qsum
		}
	}
	return mu, basis, vals, sigma2
}

// maxPrincipalSine returns the sine of the largest principal angle between
// the column spaces of the orthonormal d×k bases a and b: the spectral norm
// of b − a·(aᵀb).
func maxPrincipalSine(a, b *mat.Dense) float64 {
	r := b.Clone()
	mat.AddScaled(r, -1, mat.Mul(nil, a, mat.MulTA(nil, a, b)))
	lam, _, _ := eig.SymEig(mat.Gram(nil, r))
	return math.Sqrt(max(lam[0], 0))
}

// TestWarmupFitMatchesThinSVDRoute holds the warm-up fit on the row kernels
// to the ThinSVD route it replaced, on the buffer an engine holds at its
// InitSize-th row: gappy d=1000 spectra (bin-mean filled) and the complete
// d=400 signal, both run for the passes the fit's stopping rule chose. The
// largest principal angle stays within 1e-8, σ² within 1e-10 relative, the
// mean within 1e-9·‖µ‖∞ (measured 7e-11 at d=1000) and BatchPCA's basis
// within the same angle. The eigenvalues σ²·s²/Σw·r² inherit the
// cancellation in r² = ‖y‖² − ‖coef‖², which both routes take in their own
// summation order: at d=1000 they differ by 9.6e-11 relative on amd64 and
// by 1.9e-10 under GOARCH=386 (whose spectra flux differs), so they are
// held to 5e-10.
func TestWarmupFitMatchesThinSVDRoute(t *testing.T) {
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), math.SmallestNonzeroFloat64) }
	for _, tc := range []struct {
		d     int
		gappy bool
	}{{1000, true}, {400, false}} {
		en, err := NewEngine(Config{Dim: tc.d, Components: 4, Extra: 1, Alpha: 1 - 1.0/5000})
		if err != nil {
			t.Fatal(err)
		}
		xs := warmupRows(t, tc.d, en.Config().InitSize, tc.gappy)
		for _, x := range xs[:len(xs)-1] {
			if _, err := en.ObserveAuto(x); err != nil {
				t.Fatal(err)
			}
		}
		buf := en.warmup
		fit, err := robustFit(buf, 4, 5, en.cfg.Rho, en.cfg.Delta, 25)
		if err != nil {
			t.Fatal(err)
		}
		mu, basis, vals, sigma2 := robustFitThinSVD(buf, 4, 5, en.cfg.Rho, en.cfg.Delta, fit.iters)
		worst := 0.0
		for j := range vals {
			worst = max(worst, rel(fit.vals[j], vals[j]))
		}
		angle := maxPrincipalSine(basis, fit.basis.T())
		t.Logf("d=%d after %d passes: angle %.1e, eigenvalues %.1e, σ² %.1e relative", tc.d, fit.iters, angle, worst, rel(fit.sigma2, sigma2))
		if angle > 1e-8 || worst > 5e-10 {
			t.Errorf("d=%d: robust fit basis %.2e and eigenvalues %.2e from the ThinSVD route", tc.d, angle, worst)
		}
		if r := rel(fit.sigma2, sigma2); r > 1e-10 {
			t.Errorf("d=%d: σ² off by %.2e relative", tc.d, r)
		}
		if !mat.EqualApproxVec(fit.mean, mu, 1e-9*mat.NormInf(mu)) {
			t.Errorf("d=%d: robust mean differs beyond 1e-9·‖µ‖∞", tc.d)
		}
		res, err := BatchPCA(buf, 5)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := leftSingularThinSVD(buf, res.Mean, 5)
		if s := maxPrincipalSine(ref, res.Vectors); s > 1e-8 {
			t.Errorf("d=%d: BatchPCA basis %.2e from the ThinSVD route", tc.d, s)
		}
	}
}
