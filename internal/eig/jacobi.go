// Package eig implements the dense eigenvalue and singular-value solvers
// streampca needs: symmetric eigensolvers (cyclic Jacobi, Householder
// tridiagonalization with implicit QL, and an O(k²) secular-equation solver
// for arrowhead matrices), the Gram-route thin SVD of tall matrices, and
// Gram–Schmidt orthonormalization. All solvers are deterministic. The
// streaming engine's per-observation rank-one update is one ArrowSym call on
// a (k+1)×(k+1) arrowhead; its rank-c block updates, merges and warm-up fit
// are each one TridiagSym call on a Gram; ThinSVD is the tests' reference.
package eig

import (
	"math"

	"streampca/internal/mat"
)

// jacobiMaxSweeps bounds the cyclic Jacobi iteration. Convergence is
// quadratic once off-diagonal mass is small; well-conditioned inputs finish
// in ≤ ~8 sweeps, and 60 is far beyond anything a non-adversarial matrix
// needs. Exceeding it indicates NaN/Inf inputs and returns ok=false.
const jacobiMaxSweeps = 60

// SymEig computes the full eigendecomposition of the symmetric matrix a
// (only its upper triangle is read): a = V·diag(values)·Vᵀ with eigenvalues
// sorted in descending order and eigenvectors as the corresponding columns
// of V. a is not modified. ok is false when the iteration failed to
// converge (NaN/Inf inputs). It runs the tridiagonal route at every size:
// BenchmarkSymEigCrossover reads QL ahead of cyclic Jacobi from n = 3 up
// (DESIGN, "Eigensolver crossover and the dead ends"), and TridiagSym falls
// back to Jacobi for n ≤ 1 and if QL fails to converge.
func SymEig(a *mat.Dense) (values []float64, v *mat.Dense, ok bool) { return TridiagSym(a, nil) }

// SymEigWorkspace holds the working copy, eigenvector accumulator and value
// buffer for JacobiSym so repeated same-sized eigenproblems run without heap
// allocations. Not safe for concurrent use; the slices and matrix returned
// by JacobiSym are workspace-owned and valid until the next call.
type SymEigWorkspace struct {
	n      int
	w, v   *mat.Dense
	values []float64
	sub    []float64 // sub-diagonal scratch for the tridiagonal route
	// tridiagLanes' scratch: w and v sit at the front of the padded q and
	// a, rows n4 = n rounded up to 4 apart, which tridiagLanes uses as the
	// accumulated transformation Z and as its working copy, then Zᵀ; t is
	// one lane-width vector; rots[:nrot] are QL's deferred rotations; order
	// is the sort's permutation.
	n4    int
	a, q  []float64
	t     []float64
	rots  []givens
	nrot  int
	order []int
}

// NewSymEigWorkspace preallocates for n×n symmetric inputs.
func NewSymEigWorkspace(n int) *SymEigWorkspace {
	if n < 0 {
		panic("eig: negative workspace dimension")
	}
	n4 := (n + 3) &^ 3
	a, q := make([]float64, n4*n4), make([]float64, n4*n4)
	return &SymEigWorkspace{
		n:      n,
		w:      mat.NewDenseData(n, n, q[:n*n]),
		v:      mat.NewDenseData(n, n, a[:n*n]),
		values: make([]float64, n),
		sub:    make([]float64, n),
		n4:     n4,
		a:      a,
		q:      q,
		t:      make([]float64, n4),
		rots:   make([]givens, 16),
		order:  make([]int, n),
	}
}

// JacobiSym is the workspace-accepting variant of SymEig: it computes the
// eigendecomposition of the symmetric matrix a (upper triangle read, a
// unmodified) entirely inside ws, performing zero heap allocations. It always
// runs cyclic Jacobi; TridiagSym is faster at every size from n = 3.
// A nil ws is allowed and allocates a fresh workspace.
func JacobiSym(a *mat.Dense, ws *SymEigWorkspace) (values []float64, v *mat.Dense, ok bool) {
	ws, finite := loadSym(a, ws)
	n, vd := ws.n, ws.v.Data()
	for i := range vd {
		vd[i] = 0
	}
	for i := 0; i < n; i++ {
		vd[i*n+i] = 1
	}
	if !finite {
		return ws.values, ws.v, false
	}
	_, _, ok = jacobiSweepsInto(ws.w, ws.v, ws.values)
	return ws.values, ws.v, ok
}

// loadSym returns ws (allocated when nil) with a's upper triangle mirrored
// into the working copy w and a's diagonal in values, and reports whether
// every entry is finite.
func loadSym(a *mat.Dense, ws *SymEigWorkspace) (*SymEigWorkspace, bool) {
	ws = sizedWorkspace(a, ws)
	n, wd, ad := ws.n, ws.w.Data(), a.Data()
	for i := 0; i < n; i++ {
		ws.values[i] = ad[i*n+i]
		for j := i; j < n; j++ {
			wd[i*n+j], wd[j*n+i] = ad[i*n+j], ad[i*n+j]
		}
	}
	for _, x := range wd {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return ws, false
		}
	}
	return ws, true
}

// sizedWorkspace returns ws, allocated when nil, after checking that a is
// square and of ws's size.
func sizedWorkspace(a *mat.Dense, ws *SymEigWorkspace) *SymEigWorkspace {
	n := a.Rows()
	if a.Cols() != n {
		panic("eig: symmetric eigensolver requires a square matrix")
	}
	if ws == nil {
		ws = NewSymEigWorkspace(n)
	}
	if ws.n != n {
		panic("eig: symmetric eigensolver workspace dimension mismatch")
	}
	return ws
}

// jacobiSweepsInto runs threshold-cyclic Jacobi on the symmetric working
// copy w, accumulating rotations into v (both consumed) and writing the
// eigenvalues into values; it performs no heap allocations.
func jacobiSweepsInto(w, v *mat.Dense, values []float64) ([]float64, *mat.Dense, bool) {
	n := w.Rows()
	ok := false
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := offDiagNorm(w)
		if !(off > 0) { // covers 0 and NaN
			ok = off == 0
			break
		}
		// Threshold strategy from Golub & Van Loan: rotate every pair whose
		// off-diagonal entry exceeds a shrinking fraction of the total.
		thresh := 0.0
		if sweep < 3 {
			thresh = 0.2 * off / float64(n*n)
		}
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= thresh {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Skip rotations that cannot change anything at double
				// precision.
				if math.Abs(apq) < 1e-300 ||
					math.Abs(apq) <= math.Abs(app)*1e-18 && math.Abs(apq) <= math.Abs(aqq)*1e-18 {
					w.Set(p, q, 0)
					w.Set(q, p, 0)
					continue
				}
				c, s := symSchur(app, apq, aqq)
				applyJacobi(w, v, p, q, c, s)
				rotated = true
			}
		}
		if !rotated && thresh == 0 {
			ok = true
			break
		}
	}
	if !ok && offDiagNorm(w) <= 1e-12*(1+diagNorm(w)) {
		ok = true
	}

	for i := 0; i < n; i++ {
		values[i] = w.At(i, i)
	}
	sortEigenDescending(values, v)
	return values, v, ok
}

// symSchur returns the cosine and sine of the Jacobi rotation annihilating
// the (p,q) entry of a symmetric 2×2 block [[app, apq], [apq, aqq]].
func symSchur(app, apq, aqq float64) (c, s float64) {
	if apq == 0 {
		return 1, 0
	}
	tau := (aqq - app) / (2 * apq)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c = 1 / math.Sqrt(1+t*t)
	s = t * c
	return c, s
}

// applyJacobi applies the rotation J(p,q,θ) as w ← JᵀwJ and accumulates
// v ← vJ. It indexes the backing slices directly — the rotation runs O(n)
// times per sweep, so per-element bounds checks would dominate the small
// eigenproblems Jacobi serves.
func applyJacobi(w, v *mat.Dense, p, q int, c, s float64) {
	n := w.Rows()
	wd := w.Data()
	for k := 0; k < n; k++ {
		kp, kq := k*n+p, k*n+q
		wkp, wkq := wd[kp], wd[kq]
		wd[kp] = c*wkp - s*wkq
		wd[kq] = s*wkp + c*wkq
	}
	wp := wd[p*n : (p+1)*n]
	wq := wd[q*n : (q+1)*n][:n]
	for k, wpk := range wp {
		wqk := wq[k]
		wp[k] = c*wpk - s*wqk
		wq[k] = s*wpk + c*wqk
	}
	vn := v.Cols()
	vd := v.Data()
	for k := 0; k < v.Rows(); k++ {
		kp, kq := k*vn+p, k*vn+q
		vkp, vkq := vd[kp], vd[kq]
		vd[kp] = c*vkp - s*vkq
		vd[kq] = s*vkp + c*vkq
	}
}

func offDiagNorm(w *mat.Dense) float64 {
	n := w.Rows()
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := w.At(i, j)
			s += 2 * x * x
		}
	}
	return math.Sqrt(s)
}

func diagNorm(w *mat.Dense) float64 {
	var s float64
	for i := 0; i < w.Rows(); i++ {
		x := w.At(i, i)
		s += x * x
	}
	return math.Sqrt(s)
}

// sortEigenDescending reorders values (and the corresponding columns of v)
// in place so values are descending. Selection sort with in-place column
// swaps: allocation free and deterministic, and n is small on every
// per-observation path (k+1 or k+c). Exactly-tied eigenvalues may emerge in either
// order — their eigenspace basis is arbitrary regardless.
func sortEigenDescending(values []float64, v *mat.Dense) {
	n := len(values)
	i := 1
	for i < n && values[i] <= values[i-1] {
		i++
	}
	if i >= n { // already descending: the selection sort would swap nothing
		return
	}
	vn := v.Cols()
	vd := v.Data()
	rows := v.Rows()
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if values[j] > values[best] {
				best = j
			}
		}
		if best == i {
			continue
		}
		values[i], values[best] = values[best], values[i]
		for k := 0; k < rows; k++ {
			ki, kb := k*vn+i, k*vn+best
			vd[ki], vd[kb] = vd[kb], vd[ki]
		}
	}
}
