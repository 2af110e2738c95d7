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
// streaming estimator. Use JacobiSVD when full relative accuracy of tiny
// singular values matters.
func ThinSVD(a *mat.Dense) (SVD, bool) {
	return thinSVD(a, nil)
}

// ThinSVDWorkspace holds the reusable buffers of ThinSVD for hot paths
// that decompose same-shaped matrices repeatedly (the streaming engine
// does one per observation). A Decompose through the workspace performs
// zero heap allocations: the Gram accumulation, the symmetric
// eigendecomposition (via JacobiSym) and the column normalization all run
// in preallocated scratch. Not safe for concurrent use; the returned
// decomposition's U, S and V are workspace-owned and valid until the next
// Decompose.
type ThinSVDWorkspace struct {
	r, c int
	g, u *mat.Dense
	s    []float64
	col  []float64
	sym  *SymEigWorkspace
	invs []float64 // per-column inverse singular values for row-wise scaling
	cand []float64 // fillOrthonormalColumn probe scratch
	othr []float64
}

// NewThinSVDWorkspace preallocates for r×c inputs.
func NewThinSVDWorkspace(r, c int) *ThinSVDWorkspace {
	if r < c || c < 0 {
		panic("eig: workspace requires rows >= cols >= 0")
	}
	ws := &ThinSVDWorkspace{
		r: r, c: c,
		g:    mat.NewDense(c, c),
		u:    mat.NewDense(r, c),
		s:    make([]float64, c),
		col:  make([]float64, r),
		sym:  NewSymEigWorkspace(c),
		invs: make([]float64, c),
		cand: make([]float64, r),
		othr: make([]float64, r),
	}
	return ws
}

// Decompose runs ThinSVD reusing the workspace buffers. a must have the
// workspace's shape.
func (ws *ThinSVDWorkspace) Decompose(a *mat.Dense) (SVD, bool) {
	if r, c := a.Dims(); r != ws.r || c != ws.c {
		panic("eig: workspace shape mismatch")
	}
	return thinSVD(a, ws)
}

func thinSVD(a *mat.Dense, ws *ThinSVDWorkspace) (SVD, bool) {
	r, c := a.Dims()
	if r < c {
		panic("eig: ThinSVD requires rows >= cols")
	}
	var u *mat.Dense
	var s []float64
	var lam []float64
	var v *mat.Dense
	var ok bool
	if ws != nil {
		u, s = ws.u, ws.s
		// The Gram matrix is (p+1)×(p+1) on the streaming path — small
		// enough that the allocation-free Jacobi beats the tridiagonal
		// route SymEig would pick.
		lam, v, ok = JacobiSym(mat.Gram(ws.g, a), ws.sym)
	} else {
		s = make([]float64, c)
		lam, v, ok = SymEig(mat.Gram(nil, a))
	}
	for i, l := range lam {
		if l > 0 {
			s[i] = math.Sqrt(l)
		} else {
			s[i] = 0
		}
	}
	u = mat.Mul(u, a, v)
	// Normalize columns of u; rebuild numerically-null columns. The scaling
	// runs row-wise (one pass over u's contiguous storage with per-column
	// inverse factors) instead of column-wise strided copies.
	smax := 0.0
	if c > 0 {
		smax = s[0]
	}
	tol := 1e-13 * smax * math.Sqrt(float64(r))
	var invs []float64
	if ws != nil {
		invs = ws.invs
	} else {
		invs = make([]float64, c)
	}
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
		var cand, othr []float64
		if ws != nil {
			cand, othr = ws.cand, ws.othr
		} else {
			cand = make([]float64, r)
			othr = make([]float64, r)
		}
		for j := 0; j < c; j++ {
			if s[j] == 0 {
				fillOrthonormalColumnInto(u, j, cand, othr)
			}
		}
	}
	return SVD{U: u, S: s, V: v}, ok
}

// JacobiSVD computes the thin SVD of a (r×c, r ≥ c) by one-sided Jacobi
// rotations: columns of a working copy are orthogonalized pairwise; the
// final column norms are the singular values, the normalized columns form
// U, and the accumulated rotations form V. Slower than ThinSVD but accurate
// for small singular values; used as a cross-check and for ill-conditioned
// merges.
func JacobiSVD(a *mat.Dense) (SVD, bool) {
	r, c := a.Dims()
	if r < c {
		panic("eig: JacobiSVD requires rows >= cols")
	}
	u := a.Clone()
	v := mat.Identity(c)
	if c == 0 {
		return SVD{U: u, S: nil, V: v}, true
	}

	const maxSweeps = 60
	// Frobenius-scaled convergence tolerance for pairwise orthogonality.
	eps := 1e-15
	converged := false
	colI := make([]float64, r)
	colJ := make([]float64, r)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotations := 0
		for i := 0; i < c-1; i++ {
			for j := i + 1; j < c; j++ {
				u.Col(i, colI)
				u.Col(j, colJ)
				aii := mat.Dot(colI, colI)
				ajj := mat.Dot(colJ, colJ)
				aij := mat.Dot(colI, colJ)
				if math.Abs(aij) <= eps*math.Sqrt(aii*ajj) || aij == 0 {
					continue
				}
				// Two-sided rotation of the column pair.
				tau := (ajj - aii) / (2 * aij)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				cs := 1 / math.Sqrt(1+t*t)
				sn := t * cs
				for k := 0; k < r; k++ {
					ui, uj := colI[k], colJ[k]
					colI[k] = cs*ui - sn*uj
					colJ[k] = sn*ui + cs*uj
				}
				u.SetCol(i, colI)
				u.SetCol(j, colJ)
				for k := 0; k < c; k++ {
					vi, vj := v.At(k, i), v.At(k, j)
					v.Set(k, i, cs*vi-sn*vj)
					v.Set(k, j, sn*vi+cs*vj)
				}
				rotations++
			}
		}
		if rotations == 0 {
			converged = true
			break
		}
	}

	s := make([]float64, c)
	for j := 0; j < c; j++ {
		u.Col(j, colI)
		s[j] = mat.Norm2(colI)
	}
	// Sort descending by singular value, permuting U and V columns.
	order := sortedOrderDesc(s)
	us := mat.NewDense(r, c)
	vs := mat.NewDense(c, c)
	ss := make([]float64, c)
	vcol := make([]float64, c)
	for newJ, oldJ := range order {
		ss[newJ] = s[oldJ]
		us.SetCol(newJ, u.Col(oldJ, colI))
		vs.SetCol(newJ, v.Col(oldJ, vcol))
	}
	smax := ss[0]
	tol := 1e-13 * smax * math.Sqrt(float64(r))
	for j := 0; j < c; j++ {
		if ss[j] > tol && ss[j] > 0 {
			us.Col(j, colI)
			mat.Scale(1/ss[j], colI)
			us.SetCol(j, colI)
			continue
		}
		ss[j] = 0
		fillOrthonormalColumn(us, j)
	}
	return SVD{U: us, S: ss, V: vs}, converged
}

func sortedOrderDesc(s []float64) []int {
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	// insertion sort: c is small (p+1) on the hot path
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s[order[j]] > s[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// fillOrthonormalColumn replaces column j of u with a unit vector orthogonal
// to all other columns, using randomized-free deterministic probing of the
// standard basis followed by Gram–Schmidt.
func fillOrthonormalColumn(u *mat.Dense, j int) {
	r := u.Rows()
	fillOrthonormalColumnInto(u, j, make([]float64, r), make([]float64, r))
}

// fillOrthonormalColumnInto is fillOrthonormalColumn with caller-owned
// probe scratch (both length u.Rows()); it performs no heap allocations.
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

// Reconstruct returns U·diag(S)·Vᵀ, the matrix the decomposition represents.
func (d SVD) Reconstruct() *mat.Dense {
	r := d.U.Rows()
	us := mat.NewDense(r, len(d.S))
	col := make([]float64, r)
	for j := range d.S {
		d.U.Col(j, col)
		mat.Scale(d.S[j], col)
		us.SetCol(j, col)
	}
	return mat.MulBT(nil, us, d.V)
}
