package core

import (
	"math"

	"streampca/internal/mat"
)

// solveSPD solves G·x = b for a symmetric positive-definite k×k matrix G by
// Cholesky factorization, adding a diagonal jitter and retrying when G is
// only semi-definite (masked bins can make the observed-row Gram singular).
// G is not modified. It allocates its result and scratch; the steady-state
// gap patch calls solveSPDInto with workspace buffers instead.
func solveSPD(g *mat.Dense, b []float64) ([]float64, error) {
	k := g.Rows()
	if g.Cols() != k || len(b) != k {
		panic("core: solveSPD shape mismatch")
	}
	if k == 0 {
		return nil, nil
	}
	x := make([]float64, k)
	if !solveSPDInto(x, g, b, mat.NewDense(k, k), make([]float64, k)) {
		return nil, errCholesky
	}
	return x, nil
}

// solveSPDInto is solveSPD into caller-owned storage: the solution lands in
// x (which may alias b), l (k×k) receives the Cholesky factor and tmp (length
// k) the forward substitution. Only the lower triangle of g is read. It
// reports false when G stays non-positive-definite through every jitter retry.
func solveSPDInto(x []float64, g *mat.Dense, b []float64, l *mat.Dense, tmp []float64) bool {
	k := g.Rows()
	gd, ld := g.Data(), l.Data()
	var trace float64
	for i := 0; i < k; i++ {
		trace += gd[i*k+i]
	}
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if cholesky(ld, gd, k, jitter) {
			cholSolve(x, ld, b, tmp, k)
			return true
		}
		if jitter == 0 {
			jitter = 1e-12 * (trace/float64(k) + 1e-300)
		} else {
			jitter *= 100
		}
	}
	return false
}

// cholesky fills the lower triangle of l with the factor of
// (G + jitter·I) = L·Lᵀ, or returns false when a pivot is non-positive.
func cholesky(l, g []float64, k int, jitter float64) bool {
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			s := g[i*k+j]
			if i == j {
				s += jitter
			}
			for m := 0; m < j; m++ {
				s -= l[i*k+m] * l[j*k+m]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return false
				}
				l[i*k+i] = math.Sqrt(s)
			} else {
				l[i*k+j] = s / l[j*k+j]
			}
		}
	}
	return true
}

// cholSolve solves L·Lᵀ·x = b by forward (into tmp) and back substitution.
func cholSolve(x, l, b, tmp []float64, k int) {
	for i := 0; i < k; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l[i*k+j] * tmp[j]
		}
		tmp[i] = s / l[i*k+i]
	}
	for i := k - 1; i >= 0; i-- {
		s := tmp[i]
		for j := i + 1; j < k; j++ {
			s -= l[j*k+i] * x[j]
		}
		x[i] = s / l[i*k+i]
	}
}
