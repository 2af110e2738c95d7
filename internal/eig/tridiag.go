package eig

import (
	"math"

	"streampca/internal/mat"
)

// Symmetric eigensolver via Householder tridiagonalization followed by the
// implicit QL algorithm with Wilkinson shifts — the classic EISPACK
// tred2/tql2 pair. For matrices beyond a few dozen rows it is roughly an
// order of magnitude faster than cyclic Jacobi while achieving comparable
// accuracy; SymEig dispatches here automatically for larger inputs.

// TridiagSym is the workspace-accepting variant of the tridiagonal route: it
// computes the eigendecomposition of the symmetric matrix a (upper triangle
// read, a unmodified) entirely inside ws with zero heap allocations, running
// tred2/tql2 instead of cyclic Jacobi. The crossover favors it well below
// SymEig's dispatch threshold — already around n ≈ 12 the QL iteration beats
// Jacobi's sweep cost, which is why the block-incremental engine update uses
// it for its (k+c)-sized Gram systems. The returned matrix is workspace-owned
// and valid until the next call; on the (essentially unreachable for finite
// input) QL convergence failure it falls back to JacobiSym on the same
// workspace.
func TridiagSym(a *mat.Dense, ws *SymEigWorkspace) (values []float64, v *mat.Dense, ok bool) {
	// loadSym leaves the symmetrized copy in ws.w, which tred2 then
	// overwrites with the accumulated orthogonal transformation (so ws.w,
	// not ws.v, is returned).
	ws, finite := loadSym(a, ws)
	if ws.n <= 1 {
		return JacobiSym(a, ws)
	}
	if !finite {
		return ws.values, ws.w, false
	}
	tred2(ws.w, ws.values, ws.sub)
	if !tql2(ws.w, ws.values, ws.sub) {
		return JacobiSym(a, ws)
	}
	sortEigenDescending(ws.values, ws.w)
	return ws.values, ws.w, true
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form by
// Householder similarity transformations, accumulating the transformation
// in z. On return d holds the diagonal and e the sub-diagonal (e[0] = 0).
// Translated from the EISPACK routine (Numerical Recipes formulation); like
// applyJacobi it indexes the backing slice directly — the O(n³) inner loops
// run on every block-incremental engine update, where per-element bounds
// checks would dominate the small systems.
func tred2(z *mat.Dense, d, e []float64) {
	n := z.Rows()
	zd := z.Data()
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		zi := zd[i*n : i*n+n]
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(zi[k])
			}
			if scale == 0 {
				e[i] = zi[l]
			} else {
				for k := 0; k <= l; k++ {
					zik := zi[k] / scale
					zi[k] = zik
					h += zik * zik
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					zj := zd[j*n : j*n+n]
					zj[i] = zi[j] / h
					g = 0
					for k := 0; k <= j; k++ {
						g += zj[k] * zi[k]
					}
					for k := j + 1; k <= l; k++ {
						g += zd[k*n+j] * zi[k]
					}
					e[j] = g / h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = zi[j]
					g = e[j] - hh*f
					e[j] = g
					zj := zd[j*n : j*n+n]
					for k := 0; k <= j; k++ {
						zj[k] -= f*e[k] + g*zi[k]
					}
				}
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		zi := zd[i*n : i*n+n]
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += zi[k] * zd[k*n+j]
				}
				for k := 0; k <= l; k++ {
					zd[k*n+j] -= g * zd[k*n+i]
				}
			}
		}
		d[i] = zi[i]
		zi[i] = 1
		for j := 0; j <= l; j++ {
			zd[j*n+i] = 0
			zi[j] = 0
		}
	}
}

// pythag returns √(a²+b²) like math.Hypot but without its extended-precision
// slow path, which profiles at several percent of the whole block-incremental
// rebuild: the QL rotations feed it well-scaled Gram-derived values, so the
// naive form is exact enough (≤1 ulp worse than Hypot) whenever it cannot
// overflow or lose b to underflow. Outside that safe range it defers to the
// library routine.
func pythag(a, b float64) float64 {
	x, y := math.Abs(a), math.Abs(b)
	if x < y {
		x, y = y, x
	}
	// x ≥ y here: x²+y² can neither overflow nor collapse to 0 spuriously
	// when x is comfortably inside ±1e±150.
	if x > 1e150 || (x < 1e-150 && x > 0) {
		return math.Hypot(a, b)
	}
	return math.Sqrt(x*x + y*y)
}

// tql2 finds the eigensystem of a symmetric tridiagonal matrix (diagonal d,
// sub-diagonal e as produced by tred2) by the implicit QL method with
// shifts, rotating the transformation accumulated in z. Returns false when
// an eigenvalue fails to converge within 50 iterations.
func tql2(z *mat.Dense, d, e []float64) bool {
	n := len(d)
	if n == 0 {
		return true
	}
	zd := z.Data()
	rows := z.Rows()
	zn := z.Cols()
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find a small sub-diagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return false
			}
			// Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := pythag(g, 1)
			sgn := r
			if g < 0 {
				sgn = -r
			}
			g = d[m] - d[l] + e[l]/(g+sgn)
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = pythag(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < rows; k++ {
					ki := k*zn + i
					zki, zki1 := zd[ki], zd[ki+1]
					zd[ki+1] = s*zki + c*zki1
					zd[ki] = c*zki - s*zki1
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return true
}
