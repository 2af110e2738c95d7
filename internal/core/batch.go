package core

import (
	"errors"
	"math"

	"streampca/internal/mat"
	"streampca/internal/robust"
)

// BatchResult is the outcome of an offline PCA: the baselines the streaming
// estimator is compared against in the experiments.
type BatchResult struct {
	// Mean is the (possibly weighted) location estimate.
	Mean []float64
	// Vectors holds eigenvectors as columns (d×p).
	Vectors *mat.Dense
	// Values holds the corresponding sample-covariance eigenvalues
	// (descending). Note these are in plain variance units, unlike the
	// streaming engine's weighted-covariance units.
	Values []float64
	// Sigma2 is the residual scale: mean squared residual for BatchPCA,
	// M-scale for BatchRobustPCA.
	Sigma2 float64
	// Iterations is the number of reweighting passes BatchRobustPCA ran
	// (1 for BatchPCA).
	Iterations int
}

// BatchPCA computes classical offline PCA with p components: sample mean,
// sample covariance eigensystem via SVD of the centered data matrix. It is
// the paper's classical baseline.
func BatchPCA(xs [][]float64, p int) (*BatchResult, error) {
	n := len(xs)
	if n < 2 {
		return nil, errors.New("core: BatchPCA needs at least 2 observations")
	}
	d := len(xs[0])
	if p <= 0 || p > d || p > n {
		return nil, errors.New("core: BatchPCA invalid component count")
	}
	mu := make([]float64, d)
	for _, x := range xs {
		if len(x) != d {
			return nil, errors.New("core: BatchPCA ragged input")
		}
		mat.Axpy(1, x, mu)
	}
	mat.Scale(1/float64(n), mu)

	basis, svals, err := leftSingular(centered(xs, mu), p)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, p)
	for j := 0; j < p; j++ {
		vals[j] = svals[j] * svals[j] / float64(n)
	}
	// Residual scale against the p-dimensional fit.
	var sumR2 float64
	y := make([]float64, d)
	coef := make([]float64, p)
	for _, x := range xs {
		if r2 := mat.CenterProject(y, coef, x, mu, basis) - mat.Dot(coef, coef); r2 > 0 {
			sumR2 += r2
		}
	}
	return &BatchResult{
		Mean: mu, Vectors: basis.T(), Values: vals,
		Sigma2: sumR2 / float64(n), Iterations: 1,
	}, nil
}

// BatchRobustPCA computes the offline robust PCA of Maronna (2005) by
// alternating: (1) residuals against the current p-dimensional hyperplane,
// (2) M-scale σ² of the residuals, (3) weights wᵢ = W(rᵢ²/σ²), (4) weighted
// mean and weighted covariance eigensystem (eqs. 6–7). Iterates until the
// subspace and scale stabilize or maxIter passes. It is both the reference
// the streaming robust estimator should converge to and the offline
// comparator for the experiments.
func BatchRobustPCA(xs [][]float64, p int, rho robust.Rho, delta float64, maxIter int) (*BatchResult, error) {
	fit, err := robustFit(xs, p, p, rho, delta, maxIter)
	if err != nil {
		return nil, err
	}
	return &BatchResult{
		Mean: fit.mean, Vectors: fit.basis.T(), Values: fit.vals,
		Sigma2: fit.sigma2, Iterations: fit.iters,
	}, nil
}

// robustFitResult carries everything the engine's warm-up needs to seed its
// state from a Maronna fit: k-component basis, eigenvalues in the weighted-
// covariance units of eq. (7), and the final mean weight statistics that
// initialize the running sums v and q.
type robustFitResult struct {
	mean    []float64
	basis   *mat.Dense // k×d, component-major
	vals    []float64  // length k, σ²·s²/Σ(w·r²) units
	sigma2  float64
	meanW   float64 // (1/n)·Σ wᵢ at the solution
	meanWR2 float64 // (1/n)·Σ wᵢ·rᵢ² at the solution
	iters   int
}

// robustFit runs the Maronna alternation maintaining k ≥ p components while
// weighting residuals against the first p only.
func robustFit(xs [][]float64, p, k int, rho robust.Rho, delta float64, maxIter int) (*robustFitResult, error) {
	n := len(xs)
	if n < 2 {
		return nil, errors.New("core: robust fit needs at least 2 observations")
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	if k < p {
		k = p
	}
	start, err := BatchPCA(xs, k)
	if err != nil {
		return nil, err
	}
	d := len(xs[0])
	mu := start.Mean
	basis := start.Vectors.T()
	vals := start.Values
	sigma2 := 0.0

	// Per-iteration buffers, hoisted: coefficient vector, the double-buffered
	// weighted mean (mu and muBuf swap roles each pass so the new mean is
	// never written into the array residuals were taken against), and the
	// backing rows of the scaled data matrix.
	r2 := make([]float64, n)
	w := make([]float64, n)
	y := make([]float64, d)
	coef := make([]float64, k)
	muBuf := make([]float64, d)
	rowBuf := make([]float64, n*d)
	iter := 0
	for ; iter < maxIter; iter++ {
		// Residuals against the current p-dimensional hyperplane (the extra
		// k−p components are carried along but do not affect the weights).
		for i, x := range xs {
			ri := mat.CenterProject(y, coef, x, mu, basis)
			for j := 0; j < p; j++ {
				ri -= coef[j] * coef[j]
			}
			r2[i] = max(ri, 0)
		}
		s2, errS := robust.MScale(rho, r2, delta, sigma2)
		if errS != nil {
			return nil, errS
		}
		prevSigma2 := sigma2
		sigma2 = s2
		robust.Weights(rho, r2, sigma2, w)

		// Weighted mean (eq. 6).
		var wsum float64
		for i := range w {
			wsum += w[i]
		}
		if wsum <= 0 {
			return nil, errors.New("core: all observations rejected; increase delta or cutoff")
		}
		for i := range muBuf {
			muBuf[i] = 0
		}
		for i, x := range xs {
			if w[i] != 0 {
				mat.Axpy(w[i], x, muBuf)
			}
		}
		mat.Scale(1/wsum, muBuf)
		mu, muBuf = muBuf, mu

		// Weighted covariance eigensystem (eq. 7) via the scaled data
		// matrix: C = σ²·Yw·Ywᵀ/Σ(w·r²) with Yw columns √wᵢ·(xᵢ−µ), the
		// rows of leftSingular's input.
		var qsum float64
		for i := range w {
			qsum += w[i] * r2[i]
		}
		if qsum <= 0 {
			qsum = wsum * sigma2
		}
		m := 0
		for i, x := range xs {
			if w[i] != 0 {
				row := rowBuf[m*d : (m+1)*d]
				mat.SubTo(row, x, mu)
				mat.Scale(math.Sqrt(w[i]), row)
				m++
			}
		}
		basisNew, svals, errB := leftSingular(mat.NewDenseData(m, d, rowBuf[:m*d]), k)
		if errB != nil {
			return nil, errB
		}
		for j := 0; j < k && j < len(svals); j++ {
			vals[j] = sigma2 * svals[j] * svals[j] / qsum
		}
		// Convergence: subspace rotation and scale change both small.
		aff := affinity(basis, basisNew)
		basis = basisNew
		if iter > 0 && math.Abs(sigma2-prevSigma2) <= 1e-10*sigma2 && aff > 1-1e-10 {
			iter++
			break
		}
	}
	var wsum, wr2sum float64
	for i := range w {
		wsum += w[i]
		wr2sum += w[i] * r2[i]
	}
	return &robustFitResult{
		mean: mu, basis: basis, vals: vals, sigma2: sigma2,
		meanW: wsum / float64(n), meanWR2: wr2sum / float64(n),
		iters: iter,
	}, nil
}

// centered returns the n×d matrix whose rows are xs[i] − mu.
func centered(xs [][]float64, mu []float64) *mat.Dense {
	y := mat.NewDense(len(xs), len(mu))
	for i, x := range xs {
		mat.SubTo(y.Row(i), x, mu)
	}
	return y
}

// affinity returns the mean squared cosine between the row spaces of two
// orthonormal component-major bases with equal shape.
func affinity(a, b *mat.Dense) float64 {
	f := mat.MulBT(nil, a, b).FrobeniusNorm()
	return f * f / float64(a.Rows())
}
