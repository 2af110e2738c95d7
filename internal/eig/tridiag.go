package eig

import (
	"math"

	"streampca/internal/mat"
)

// Symmetric eigensolver via Householder tridiagonalization followed by the
// implicit QL algorithm with Wilkinson shifts — the classic EISPACK
// tred2/tql2 pair. It is faster than cyclic Jacobi at every measured size
// (from 1.6× at n = 3 to 4× at n = 16) with comparable accuracy, and SymEig
// dispatches here for every input.

// TridiagSym is the workspace-accepting variant of the tridiagonal route: it
// computes the eigendecomposition of the symmetric matrix a (upper triangle
// read, a unmodified) entirely inside ws with zero heap allocations, running
// tred2/tql2 instead of cyclic Jacobi, which it beats from n = 3 up — why
// the block-incremental engine update uses it for its (k+c)-sized Gram
// systems. The returned matrix is workspace-owned and valid until the next
// call; on the (essentially unreachable for finite input) QL convergence
// failure it falls back to JacobiSym on the same workspace.
func TridiagSym(a *mat.Dense, ws *SymEigWorkspace) (values []float64, v *mat.Dense, ok bool) {
	if useLanes && a.Rows() > 1 {
		if ws, ok = loadLanes(a, ws); ok {
			if ws.tridiagLanes() {
				return ws.values, ws.w, true
			}
			return JacobiSym(a, ws)
		}
		// Non-finite input: loadSym below reports it as the Go route does.
	}
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
	if !tql2(ws.w, ws.values, ws.sub, nil) {
		return JacobiSym(a, ws)
	}
	sortEigenDescending(ws.values, ws.w)
	return ws.values, ws.w, true
}

// loadLanes is loadSym for tridiagLanes: it mirrors a's upper triangle into
// ws.a, rows ws.n4 apart and zero past n, instead of into ws.w.
func loadLanes(a *mat.Dense, ws *SymEigWorkspace) (*SymEigWorkspace, bool) {
	ws = sizedWorkspace(a, ws)
	n, n4, ad, wa := ws.n, ws.n4, a.Data(), ws.a
	var bad uint64 // x−x is +0 exactly when x is finite
	for i := 0; i < n; i++ {
		row := wa[i*n4 : i*n4+n4]
		ws.values[i] = ad[i*n+i]
		for j, x := range ad[i*n+i : i*n+n] {
			row[i+j] = x
			wa[(i+j)*n4+i] = x
			bad |= math.Float64bits(x - x)
		}
		clear(row[n:])
	}
	return ws, bad == 0
}

// tridiagLanes is tred2, tql2 and sortEigenDescending for the AVX2 route on
// the copy loadLanes left in ws.a, leaving the same values and V (in ws.w),
// bit for bit, and false where tql2 fails. tred2Lanes reduces ws.a and
// leaves Zᵀ there; QL runs its values and defers each rotation to a pass
// over Zᵀ's contiguous rows (flush); the sort then writes Zᵀ's rows as V's
// columns.
func (ws *SymEigWorkspace) tridiagLanes() bool {
	n, n4, wd, a := ws.n, ws.n4, ws.w.Data(), ws.a
	ws.tred2Lanes()
	ws.nrot = 0
	if !tql2(ws.w, ws.values, ws.sub, ws) {
		return false
	}
	ws.flush()
	// sortEigenDescending's selection sort, on an index.
	vals, order := ws.values, ws.order
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[j] > vals[best] {
				best = j
			}
		}
		vals[i], vals[best] = vals[best], vals[i]
		order[i], order[best] = order[best], order[i]
	}
	for j, src := range order {
		for k, x := range a[src*n4 : src*n4+n] {
			wd[k*n+j] = x
		}
	}
	return true
}

// tred2Lanes is tred2 on the padded copy in ws.a (rows ws.n4 apart), with
// each O(n²) loop of a step in lanes across its independent index: ws.a's
// active block is kept whole (both triangles, the upper one the mirror of
// the lower, bit for bit, since products and sums commute), so the
// matrix-vector product p = A·u reads rows and sums each column in tred2's
// k order, and the rank-2 update runs along rows. u/h goes to row i of ws.q,
// where the accumulation of Z (phase 2, again column sums over contiguous
// rows in k order, and a rank-1 update along rows) takes it before that row
// is set. The lanes past column i−1 of a step compute values that no later
// step reads. It leaves tred2's d and e in ws.values and ws.sub and Zᵀ in
// ws.a.
func (ws *SymEigWorkspace) tred2Lanes() {
	n, n4 := ws.n, ws.n4
	a, q, t, d, e := ws.a, ws.q, ws.t, ws.values, ws.sub
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ai := a[i*n4 : i*n4+n4]
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(ai[k])
			}
		}
		if scale == 0 {
			e[i] = ai[l]
			d[i] = h
			continue
		}
		for k := 0; k <= l; k++ {
			aik := ai[k] / scale
			ai[k] = aik
			h += aik * aik
		}
		f := ai[l]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		ai[l] = f - g
		vecMatLanes(t, ai, a, i, n4)
		qi := q[i*n4 : i*n4+i]
		f = 0
		for j := range qi {
			qi[j] = ai[j] / h
			t[j] /= h
			f += t[j] * ai[j]
		}
		hh := f / (h + h)
		for j := 0; j <= l; j++ {
			t[j] -= hh * ai[j]
		}
		rank2Lanes(a, ai, t, i, n4)
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		qi := q[i*n4 : i*n4+n4]
		if d[i] != 0 {
			vecMatLanes(t, a[i*n4:i*n4+n4], q, i, n4)
			rank1Lanes(q, qi, t, i, n4)
		}
		d[i] = a[i*n4+i]
		for j := 0; j < i; j++ {
			q[j*n4+i] = 0
			qi[j] = 0
		}
		qi[i] = 1
	}
	transposeLanes(a, q, n, n4)
}

// flush applies the logged rotations, in order, to Zᵀ's rows.
func (ws *SymEigWorkspace) flush() {
	rotateLanes(ws.a, ws.n4, ws.rots[:ws.nrot])
	ws.nrot = 0
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
// shifts, rotating the transformation accumulated in z or, given the lanes
// route's workspace, logging each rotation there instead (flushing a full
// log). Returns false when an eigenvalue fails to converge within 50
// iterations.
func tql2(z *mat.Dense, d, e []float64, lanes *SymEigWorkspace) bool {
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
				if lanes != nil {
					if lanes.nrot == len(lanes.rots) {
						lanes.flush()
					}
					lanes.rots[lanes.nrot] = givens{i, i + 1, c, s}
					lanes.nrot++
					continue
				}
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
