package eig

import (
	"math"

	"streampca/internal/mat"
)

// SVD holds a thin singular-value decomposition A = U·diag(S)·Vᵀ of an
// r×c matrix with r ≥ c: U is r×c with orthonormal columns, S has length c
// with non-negative entries sorted descending, V is c×c orthogonal.
type SVD struct {
	U *mat.Dense
	S []float64
	V *mat.Dense
}

// ThinSVD computes the thin SVD of a (r×c, r ≥ c) via the Gram matrix:
// G = AᵀA is c×c, its eigendecomposition G = V·Λ·Vᵀ gives S = √Λ and
// U = A·V·S⁻¹. Columns whose singular value is numerically zero (relative
// to the largest) are completed to an orthonormal set against the others,
// so U always has orthonormal columns.
//
// Accuracy: singular values below √ε·‖A‖ are not resolved (the classic
// Gram-route limitation), which is far below the statistical noise of the
// streaming estimator.
func ThinSVD(a *mat.Dense) (SVD, bool) {
	r, c := a.Dims()
	if r < c {
		panic("eig: ThinSVD requires rows >= cols")
	}
	s := make([]float64, c)
	lam, v, ok := SymEig(mat.Gram(nil, a))
	for i, l := range lam {
		if l > 0 {
			s[i] = math.Sqrt(l)
		} else {
			s[i] = 0
		}
	}
	u := mat.Mul(nil, a, v)
	// Normalize columns of u; rebuild numerically-null columns. The scaling
	// runs row-wise (one pass over u's contiguous storage with per-column
	// inverse factors) instead of column-wise strided copies.
	smax := 0.0
	if c > 0 {
		smax = s[0]
	}
	tol := 1e-13 * smax * math.Sqrt(float64(r))
	invs := make([]float64, c)
	null := 0
	for j := 0; j < c; j++ {
		if s[j] > tol && s[j] > 0 {
			invs[j] = 1 / s[j]
		} else {
			s[j] = 0
			invs[j] = 0 // zero the column; rebuilt below
			null++
		}
	}
	for i := 0; i < r; i++ {
		ui := u.Row(i)
		for j, f := range invs {
			ui[j] *= f
		}
	}
	if null > 0 {
		cand, othr := make([]float64, r), make([]float64, r)
		for j := 0; j < c; j++ {
			if s[j] == 0 {
				fillOrthonormalColumnInto(u, j, cand, othr)
			}
		}
	}
	return SVD{U: u, S: s, V: v}, ok
}

// fillOrthonormalColumnInto replaces column j of u with a unit vector
// orthogonal to all other columns, probing the standard basis with
// Gram–Schmidt in caller-owned scratch (both length u.Rows()); it performs no
// heap allocations.
func fillOrthonormalColumnInto(u *mat.Dense, j int, cand, other []float64) {
	r, c := u.Dims()
	for probe := 0; probe < r; probe++ {
		for k := range cand {
			cand[k] = 0
		}
		cand[probe] = 1
		for k := 0; k < c; k++ {
			if k == j {
				continue
			}
			u.Col(k, other)
			mat.Axpy(-mat.Dot(cand, other), other, cand)
		}
		if n := mat.Norm2(cand); n > 1e-6 {
			mat.Scale(1/n, cand)
			u.SetCol(j, cand)
			return
		}
	}
	// r columns requested from an r-dimensional space that is full: leave a
	// zero column (cannot happen for r > c inputs).
	for k := range cand {
		cand[k] = 0
	}
	u.SetCol(j, cand)
}
