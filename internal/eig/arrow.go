package eig

import (
	"math"

	"streampca/internal/mat"
)

// Symmetric arrowhead eigensolver: H = [[diag(d), z], [zᵀ, α]] is solved in
// O(k²) by its secular equation f(λ) = α − λ − Σ zⱼ²/(dⱼ − λ) = 0, the
// rank-one case of Bunch, Nielsen & Sorensen (1978) with the eigenvectors of
// Gu & Eisenstat (1994).

// epsilon is the float64 machine epsilon, 2⁻⁵².
const epsilon = 0x1p-52

// arrowMaxIter bounds the iteration for one root: the rational model takes a
// handful of steps, and each step that leaves the bracket bisects it instead.
const arrowMaxIter = 200

// ArrowWorkspace holds the scratch of ArrowSym for (k+1)×(k+1) arrowheads,
// so repeated same-sized solves run without heap allocations. Not safe for
// concurrent use; the slices and matrix ArrowSym returns are workspace-owned
// and valid until the next call.
type ArrowWorkspace struct {
	k      int
	values []float64
	v      *mat.Dense
	// perm maps working positions (diagonal descending) to rows of v; the
	// deflation loop compacts the kept poles to the front of perm, wd, wz.
	perm   []int
	wd, wz []float64 // scaled working diagonal and border
	delta  []float64 // row i, stride m: kd[q]−λᵢ formed as (kd[q]−σᵢ)−τᵢ
	rots   []givens  // deflating rotations, in the order applied
	// wd, wz and delta have capacity for three values past their ends,
	// which loewnerLanes reads and ignores.
}

// givens records a rotation of rows p and q: deflating, or deferred from QL.
type givens struct {
	p, q int
	c, s float64
}

// NewArrowWorkspace preallocates for arrowheads with a k-long diagonal.
func NewArrowWorkspace(k int) *ArrowWorkspace {
	return &ArrowWorkspace{
		k:      k,
		values: make([]float64, k+1),
		v:      mat.NewDense(k+1, k+1),
		perm:   make([]int, k),
		wd:     make([]float64, k, k+3),
		wz:     make([]float64, k, k+3),
		delta:  make([]float64, (k+1)*k, (k+1)*k+3),
		rots:   make([]givens, k),
	}
}

// ArrowSym computes the eigendecomposition of the symmetric arrowhead
// H = [[diag(diag), z], [zᵀ, alpha]] with zero heap allocations: descending
// eigenvalues and the matching eigenvector columns of V, rows in H's order
// (the border row last). Each column is oriented so that V[j][j] ≥ 0, which
// keeps a stream of near-diagonal updates from flipping basis vectors. ok is
// false for non-finite input.
func ArrowSym(diag, z []float64, alpha float64, ws *ArrowWorkspace) (values []float64, v *mat.Dense, ok bool) {
	k, n := ws.k, ws.k+1
	if len(diag) != k || len(z) != k {
		panic("eig: ArrowSym workspace dimension mismatch")
	}
	vd := ws.v.Data()
	for i := range vd {
		vd[i] = 0
	}
	// x−x is 0 exactly when x is finite, so bad stays 0 only for finite input.
	amax, bad := math.Abs(alpha), alpha-alpha
	for j, dj := range diag {
		zj := z[j]
		bad += (dj - dj) + (zj - zj)
		amax = max(amax, math.Abs(dj), math.Abs(zj))
	}
	if bad != 0 || math.IsInf(amax, 0) {
		return ws.values, ws.v, false
	}
	// Solve at an exact power-of-two scale where no square can overflow.
	_, e := math.Frexp(amax)
	down, up := pow2(-e), pow2(e)
	perm, wd, wz := ws.perm, ws.wd, ws.wz
	for i := range perm { // insertion sort: the engine's diag is sorted already
		perm[i] = i
		for j := i; j > 0 && diag[perm[j]] > diag[perm[j-1]]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	var dmax, z2 float64
	for p, j := range perm {
		wd[p], wz[p] = scale(diag[j], down, -e), scale(z[j], down, -e)
		dmax = max(dmax, math.Abs(wd[p]))
		z2 += wz[p] * wz[p]
	}
	a, znorm := scale(alpha, down, -e), math.Sqrt(z2)

	// Deflate: a negligible border entry leaves (dⱼ, eⱼ) an eigenpair; a pole
	// within tol of the previous kept one is rotated into it, zeroing its
	// border entry. Deflated pairs fill the columns from the right. tol counts
	// |α| too: a border entry far below ε·|α| would otherwise survive while
	// its root's offset from the pole underflows.
	tol := 8 * epsilon * max(math.Abs(a), dmax, znorm)
	m, nr, col := 0, 0, n
	for p := 0; p < k; p++ {
		dp, zp, row := wd[p], wz[p], perm[p]
		if math.Abs(zp) > tol && m > 0 && wd[m-1]-dp <= tol {
			r := pythag(wz[m-1], zp)
			c, s := wz[m-1]/r, zp/r
			wd[m-1], dp = c*c*wd[m-1]+s*s*dp, s*s*wd[m-1]+c*c*dp
			wz[m-1], zp = r, 0
			ws.rots[nr] = givens{perm[m-1], row, c, s}
			nr++
		}
		if math.Abs(zp) > tol {
			wd[m], wz[m], perm[m] = dp, zp, row
			m++
			continue
		}
		col--
		ws.values[col] = dp
		vd[row*n+col] = 1
	}
	kd, kz := wd[:m], wz[:m]
	switch {
	case m == 0:
		ws.values[0] = a
	case useLanes:
		if !ws.rootLanes(kd, kz, a, znorm) {
			return ws.values, ws.v, false
		}
	default:
		for i := 0; i <= m; i++ {
			if ws.values[i], ok = ws.root(i, kd, kz, a, znorm); !ok {
				return ws.values, ws.v, false
			}
		}
	}
	ws.vectors(kd, kz)
	// Undo the deflating rotations, last first: x = Gᵀx' on rows (p, q).
	for r := nr - 1; r >= 0; r-- {
		g := ws.rots[r]
		rp, rq := vd[g.p*n:g.p*n+n], vd[g.q*n:g.q*n+n]
		for j, x := range rp {
			y := rq[j]
			rp[j], rq[j] = g.c*x-g.s*y, g.s*x+g.c*y
		}
	}
	for j := range ws.values {
		ws.values[j] = scale(ws.values[j], up, e)
	}
	sortEigenDescending(ws.values, ws.v)
	for j := 0; j < n; j++ {
		if vd[j*n+j] < 0 {
			for r := j; r < len(vd); r += n {
				vd[r] = -vd[r]
			}
		}
	}
	return ws.values, ws.v, true
}

// root returns the i-th largest root of the deflated secular equation (poles
// kd strictly descending, weights kz nonzero) and leaves every kd[q]−λᵢ in
// delta's row i. Roots interlace the poles: λ₀ > kd[0] > λ₁ > … > kd[m−1] >
// λₘ. Each is sought as σ+τ relative to its nearer pole σ, so that the
// differences kd[q]−λᵢ = (kd[q]−σ)−τ keep their relative accuracy. The
// start solves a model that is exact in the nearest poles' terms and freezes
// the rest at one probe; the iteration then fits a rational model to f and f′
// (two poles for interior roots, one pole plus the linear term for the
// extreme ones), safeguarded by bisection.
func (ws *ArrowWorkspace) root(i int, kd, kz []float64, a, znorm float64) (float64, bool) {
	m := len(kd)
	row := ws.delta[i*m : i*m+m]
	var sigma, lo, hi, t float64
	if i == 0 || i == m {
		// Probe at the pole itself: c = (a−σ) − Σ_{q≠pole} kz[q]²/(kd[q]−σ),
		// then c − τ + kz[pole]²/τ = 0 gives the start.
		var pole int
		pole, sigma, lo, hi = extremeStart(i, kd, a, znorm)
		c := a - sigma
		for q, d := range kd {
			if q != pole {
				c -= kz[q] * kz[q] / (d - sigma)
			}
		}
		t = quadRoot(1, -c, -kz[pole]*kz[pole], lo, hi)
	} else {
		// Probe at the interval's midpoint: the sign of f there names the
		// nearer pole; c is f there without the two nearest poles' terms.
		half := (kd[i-1] - kd[i]) / 2
		g, _, _, _ := secular(kd, kz, a, kd[i], half, i, row)
		wa, wb := kz[i]*kz[i], kz[i-1]*kz[i-1]
		c := g - wa/half + wb/half
		if g > 0 {
			sigma, lo, hi = kd[i-1], -half, 0
		} else {
			sigma, lo, hi = kd[i], 0, half
		}
		p1, p2 := kd[i]-sigma, kd[i-1]-sigma
		t = quadRoot(c, wa+wb-c*(p1+p2), c*p1*p2-wa*p2-wb*p1, lo, hi)
	}
	if !(t > lo && t < hi) {
		t = lo + (hi-lo)/2
	}
	for iter := 0; ; iter++ {
		g, dlo, dup, mag := secular(kd, kz, a, sigma, t, i, row)
		if math.Abs(g) <= float64(m+2)*epsilon*mag {
			break
		}
		if iter == arrowMaxIter {
			return 0, false
		}
		if g > 0 {
			lo = t
		} else {
			hi = t
		}
		var qa, qb, qc float64
		if i == 0 || i == m { // h(τ) = C − A/(−τ) − τ; one of dlo, dup is 0
			a1 := -t
			c := g + a1*(dlo+dup)
			qa, qb, qc = 1, -(c + a1), g*a1
		} else { // h(τ) = C − A/(p₁−τ) − B/(p₂−τ), f′'s −1 on the farther pole
			a1, a2 := (kd[i]-sigma)-t, (kd[i-1]-sigma)-t
			wa, wb := a1*a1*dlo, a2*a2*dup
			if -a1 > a2 {
				wa += a1 * a1
			} else {
				wb += a2 * a2
			}
			c := g + wa/a1 + wb/a2
			qa, qb, qc = c, wa+wb-c*(a1+a2), a1*a2*g
		}
		tn := t + quadRoot(qa, qb, qc, lo-t, hi-t)
		if !(tn > lo && tn < hi) {
			tn = lo + (hi-lo)/2
		}
		if math.Abs(tn-t) <= 4*epsilon*math.Abs(t) {
			break
		}
		t = tn
	}
	return sigma + t, true
}

// extremeStart returns the pole an extreme root (i = 0 or m) is sought from,
// σ = kd[pole], and the bracket (lo, hi) of its offset τ: within ‖z‖ of the
// pole, above it for i = 0 and below it for i = m, widened by α−σ where that
// points outward.
func extremeStart(i int, kd []float64, a, znorm float64) (pole int, sigma, lo, hi float64) {
	pole = min(i, len(kd)-1)
	sigma = kd[pole]
	bound := znorm + 4*epsilon*(math.Abs(sigma)+math.Abs(a-sigma)+znorm)
	if i == 0 {
		return pole, sigma, 0, max(a-sigma, 0) + bound
	}
	return pole, sigma, min(a-sigma, 0) - bound, 0
}

// secular evaluates f at λ = σ+t as (a−σ) − t − Σ kz[q]²/δ_q with
// δ_q = (kd[q]−σ) − t stored into row, and returns with it the derivative
// sums Σ kz[q]²/δ_q² over the poles below (q ≥ split) and above (q < split)
// the root, and Σ|terms|, the scale of f's rounding error.
func secular(kd, kz []float64, a, sigma, t float64, split int, row []float64) (g, dlo, dup, mag float64) {
	g = (a - sigma) - t
	mag = math.Abs(a-sigma) + math.Abs(t)
	row, kz = row[:len(kd)], kz[:len(kd)]
	for q, d := range kd {
		del := (d - sigma) - t
		row[q] = del
		r := kz[q] / del
		term := kz[q] * r
		g -= term
		mag += math.Abs(term)
		if q < split {
			dup += r * r
		} else {
			dlo += r * r
		}
	}
	return g, dlo, dup, mag
}

// quadRoot returns the root of qa·x² + qb·x + qc inside (lo, hi), each root
// formed without cancellation (qa = 0 yields the linear root), or NaN when
// neither lies there.
func quadRoot(qa, qb, qc, lo, hi float64) float64 {
	q := -(qb + math.Copysign(math.Sqrt(max(qb*qb-4*qa*qc, 0)), qb)) / 2
	if x := qc / q; x > lo && x < hi {
		return x
	}
	if x := q / qa; x > lo && x < hi {
		return x
	}
	return math.NaN()
}

// pow2 returns 2ⁿ when that is a normal float64, and 0 otherwise.
func pow2(n int) float64 {
	if n < -1022 || n > 1023 {
		return 0
	}
	return math.Float64frombits(uint64(1023+n) << 52)
}

// scale returns x·2ⁿ given p = pow2(n). A multiply by a normal power of two
// rounds once, so it equals math.Ldexp(x, n) bit for bit; Ldexp runs only
// where 2ⁿ is not a normal number (p = 0).
func scale(x, p float64, n int) float64 {
	if p != 0 {
		return x * p
	}
	return math.Ldexp(x, n)
}

// vectors writes the eigenvectors of the secular roots into columns 0..m of
// v. The border kz is overwritten by the Löwner ẑ for which the computed
// roots are exact, ẑ_q² = −Πᵢ(kd[q]−λᵢ) / Π_{p≠q}(kd[q]−kd[p]), so the vectors
// (ẑ_q/(λᵢ−kd[q]), 1)/‖·‖ come out orthogonal to working precision.
func (ws *ArrowWorkspace) vectors(kd, kz []float64) {
	m, n := len(kd), ws.k+1
	vd := ws.v.Data()
	if useLanes {
		loewnerLanes(kd, kz, ws.delta)
		normLanes(vd, n, kz, ws.delta, ws.perm)
		return
	}
	// Pair each pole difference with a root difference of the same sign
	// and size, so the running product neither overflows nor underflows.
	for q := range kd {
		p := -ws.delta[q] * ws.delta[m*m+q]
		for j := 0; j < q; j++ {
			p *= ws.delta[(j+1)*m+q] / (kd[q] - kd[j])
		}
		for j := q + 1; j < m; j++ {
			p *= ws.delta[j*m+q] / (kd[q] - kd[j])
		}
		kz[q] = math.Copysign(math.Sqrt(math.Abs(p)), kz[q])
	}
	for i := 0; i <= m; i++ {
		row := ws.delta[i*m : i*m+m]
		nrm := 1.0
		for q, d := range row {
			x := -kz[q] / d
			vd[ws.perm[q]*n+i] = x
			nrm += x * x
		}
		inv := 1 / math.Sqrt(nrm)
		for q := range row {
			vd[ws.perm[q]*n+i] *= inv
		}
		vd[(n-1)*n+i] = inv
	}
}
