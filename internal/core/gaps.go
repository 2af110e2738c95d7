package core

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/mat"
)

// Rejections of a gappy row; static so the in-chunk patch never allocates.
var (
	errGapNonFinite = errors.New("core: non-finite value in observed bin")
	errAllMasked    = errors.New("core: observation is entirely masked")
	errFewObserved  = errors.New("core: too few observed bins to fit the basis")
	errMaskLength   = errors.New("core: mask length does not match the observation")
	errCholesky     = errors.New("core: Cholesky failed even with jitter")
)

// ObserveMasked absorbs an observation with missing entries (§II-D).
// mask[i] = true means x[i] was observed; masked entries of x are ignored
// (they may be NaN). The gaps are patched by the unbiased reconstruction of
// Connolly & Szalay: coefficients are fitted on the observed bins against
// the current (p+q)-component basis, missing bins are filled with the
// reconstruction, and the patched vector flows through the standard update
// as a chunk of one through the block path's patch kernel (patchProject).
//
// Because patching uses all p+q components while the robust residual is
// taken against the first p only, the residual in each patched bin is the
// difference between the two truncated reconstructions — exactly the
// higher-order correction the paper prescribes, so spectra with many empty
// pixels do not receive artificially inflated weights (set Config.Extra > 0
// to enable it; with Extra = 0 patched bins contribute zero residual).
//
// During warm-up, when no basis exists yet, missing entries are filled with
// the per-bin running mean of the observed values so the initial batch
// decomposition stays unbiased in location.
func (en *Engine) ObserveMasked(x []float64, mask []bool) (Update, error) {
	return en.observeMasked(x, mask, en.cfg.Alpha)
}

// observeMasked is ObserveMasked with an explicit one-step decay factor, as
// observe is Observe's.
func (en *Engine) observeMasked(x []float64, mask []bool, alpha float64) (Update, error) {
	d := en.cfg.Dim
	if len(x) != d || len(mask) != d {
		return Update{}, fmt.Errorf("core: masked observation length %d/%d, want %d", len(x), len(mask), d)
	}
	nObs := 0
	for i, ok := range mask {
		if !ok {
			continue
		}
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return Update{}, errGapNonFinite
		}
		nObs++
	}
	switch {
	case nObs == 0:
		return Update{}, errAllMasked
	case nObs == d:
		return en.observe(x, alpha)
	case nObs <= en.k:
		return Update{}, errFewObserved
	}
	if !en.ready {
		xp := en.fillWithBinMeans(x, mask)
		u, err := en.bufferWarmupMasked(xp, mask)
		u.Patched = d - nObs
		return u, err
	}
	return en.observeOne(x, mask, alpha)
}

// patchProject is the center/project pass for a row that carries a mask: it
// leaves in chunk slot `slot` of ws.yMat and ws.coefs what CenterProject
// would produce for the gap-patched row, and returns that row's ‖y‖² and the
// number of bins patched. The mask is read once into the edges of its runs.
// The row is copied into ws.xPatch with the current mean in those runs,
// so there y = 0 and one pass yields coef = B_obs·y_obs and ‖y_obs‖². The
// least-squares coefficients solve G_obs·c = coef with G_obs the k×k Gram of
// the observed basis columns, formed from whichever side of the mask is
// smaller: that side's columns of the k×d basis are copied run by run into a
// k×n panel P, and G_obs = P·Pᵀ over the observed bins or I − P·Pᵀ over the
// missing ones (BBᵀ = I is an engine invariant). Each missing run then takes
// y = Σⱼ cⱼ·B[j,run] by one Lerp per component, accumulated in component
// order onto the zeros the pass left there — bin for bin the sum a per-bin
// loop would form — and ws.xPatch = µ + y, and coef becomes c: exactly the
// patched row's projection coef + (I − G_obs)·c. A mask without gaps is the
// plain pass on x itself, bitwise, and leaves ws.xPatch alone.
//
//streampca:noalloc
func (en *Engine) patchProject(slot int, x []float64, mask []bool) (ny2 float64, nMiss int, err error) {
	ws := en.ws
	d, k := en.cfg.Dim, en.k
	y, coef := ws.yMat.Row(slot), ws.coefs.Row(slot)
	if len(mask) != d {
		return 0, 0, errMaskLength
	}
	edges, nb := ws.gapEdges, 1 // 0, each missing run's start and end, d
	for i := 0; i < d; i++ {
		if !mask[i] {
			s := i
			for i < d && !mask[i] {
				i++
			}
			edges[nb], edges[nb+1] = s, i
			nb, nMiss = nb+2, nMiss+i-s
		}
	}
	edges[nb] = d
	edges = edges[:nb+1] // observed runs start at even r, missing ones at odd r
	mean := en.state.Mean
	xp := x
	if nMiss > 0 {
		if d-nMiss <= k {
			return 0, 0, errFewObserved // an all-false mask included
		}
		xp = ws.xPatch
		copy(xp, x)
		for r := 1; r+1 < len(edges); r += 2 {
			copy(xp[edges[r]:edges[r+1]], mean[edges[r]:edges[r+1]])
		}
	}
	ny2 = mat.CenterProject(y, coef, xp, mean, en.basis)
	if math.IsNaN(ny2) || math.IsInf(ny2, 0) {
		return 0, 0, errGapNonFinite
	}
	if nMiss == 0 {
		return ny2, 0, nil
	}

	n, first, sign := nMiss, 1, -1.0
	if 2*nMiss > d { // fewer observed bins: gather those instead
		n, first, sign = d-nMiss, 0, 1
	}
	bd := en.basis.Data()
	pd := ws.gapP[:k*n]
	for j := 0; j < k; j++ {
		row, pj, t := bd[j*d:(j+1)*d], pd[j*n:(j+1)*n], 0
		for r := first; r+1 < len(edges); r += 2 {
			t += copy(pj[t:], row[edges[r]:edges[r+1]])
		}
	}
	gd := ws.gapG.Data() // lower triangle only: all solveSPDInto reads
	for a := 0; a < k; a++ {
		pa := pd[a*n : (a+1)*n]
		for b := 0; b <= a; b++ {
			gd[a*k+b] = sign * mat.Dot(pa, pd[b*n:(b+1)*n])
		}
		if sign < 0 {
			gd[a*k+a]++
		}
	}
	if !solveSPDInto(coef, ws.gapG, coef, ws.gapL, ws.gapTmp) {
		return 0, 0, errCholesky
	}
	for r := 1; r+1 < len(edges); r += 2 {
		s, e := edges[r], edges[r+1]
		yr, xr, mr := y[s:e], xp[s:e], mean[s:e]
		for j, cj := range coef {
			mat.Lerp(yr, 1, yr, cj, bd[j*d+s:j*d+e])
		}
		for t, v := range yr {
			xr[t] = mr[t] + v
			ny2 += v * v
		}
	}
	return ny2, nMiss, nil
}

// addOuterLower adds the lower triangle of s·row·rowᵀ (s = ±1) to the k×k g.
func addOuterLower(g []float64, s float64, row []float64) {
	k := len(row)
	for a, ra := range row {
		ga := g[a*k : a*k+a+1]
		for c := range ga {
			ga[c] += s * ra * row[c]
		}
	}
}

// PatchVector returns a copy of x with masked entries replaced by the
// current best reconstruction, together with the fitted coefficients. The
// engine must be initialized.
func (en *Engine) PatchVector(x []float64, mask []bool) (patched, coef []float64, err error) {
	if !en.ready {
		return nil, nil, errors.New("core: engine not initialized yet")
	}
	en.exportBasis()
	return patchLS(en.state.Vectors, en.state.Mean, x, mask)
}

// patchLS fills the masked entries of x by least squares against basis:
// coefficients solve the normal equations restricted to the observed rows,
// (E_obsᵀ·E_obs)·c = E_obsᵀ·(x−µ)_obs, and masked bins take µ + E·c.
func patchLS(basis *mat.Dense, mean, x []float64, mask []bool) (patched, coef []float64, err error) {
	d, k := basis.Dims()
	g := mat.NewDense(k, k)
	b := make([]float64, k)
	for i := 0; i < d; i++ {
		if row := basis.Row(i); mask[i] {
			mat.Axpy(x[i]-mean[i], row, b)
			addOuterLower(g.Data(), 1, row)
		}
	}
	coef, err = solveSPD(g, b)
	if err != nil {
		return nil, nil, err
	}

	patched = make([]float64, d)
	for i := 0; i < d; i++ {
		if mask[i] {
			patched[i] = x[i]
			continue
		}
		v := mean[i]
		row := basis.Row(i)
		for a := 0; a < k; a++ {
			v += row[a] * coef[a]
		}
		patched[i] = v
	}
	return patched, coef, nil
}

// fillWithBinMeans replaces masked entries with the running per-bin mean of
// everything observed so far (warm-up only). Bins never observed fall back
// to 0.
func (en *Engine) fillWithBinMeans(x []float64, mask []bool) []float64 {
	d := en.cfg.Dim
	if en.binSum == nil {
		en.binSum = make([]float64, d)
		en.binCount = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		if mask[i] {
			en.binSum[i] += x[i]
			en.binCount[i]++
		}
	}
	xp := make([]float64, d)
	for i := 0; i < d; i++ {
		if mask[i] {
			xp[i] = x[i]
		} else if en.binCount[i] > 0 {
			xp[i] = en.binSum[i] / en.binCount[i]
		}
	}
	return xp
}
