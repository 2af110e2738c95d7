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
		return en.Observe(x)
	case nObs <= en.k:
		return Update{}, errFewObserved
	}
	if !en.ready {
		xp := en.fillWithBinMeans(x, mask)
		u, err := en.bufferWarmupMasked(xp, mask)
		u.Patched = d - nObs
		return u, err
	}

	// A chunk of one, on the stack; its one append, if any, lands in ub.
	xs, ms, ub := [1][]float64{x}, [1][]bool{mask}, [1]Update{}
	_, err := en.observeChunk(xs[:], ms[:], ub[:0])
	return ub[0], err
}

// patchProject is the fused center/project pass for a row that carries a
// mask: it leaves in chunk slot `slot` of ws.yMat and ws.coefs what
// CenterProject would produce for the gap-patched row, and returns that row's
// ‖y‖² and the number of bins patched. The row is copied into ws.xPatch with
// the current mean in its missing bins, so there y = 0 and one pass yields
// coef = E_obsᵀ·y_obs and ‖y_obs‖². The least-squares coefficients solve
// G_obs·c = coef, the k×k Gram of the observed basis rows accumulated over
// whichever side of the mask is smaller (EᵀE = I is an engine invariant, so
// G_obs = I − Σ_missing eᵢeᵢᵀ). Missing bins then take y[i] = eᵢ·c and
// ws.xPatch[i] = µ[i] + y[i], and coef becomes c — exactly the patched row's
// projection coef + (I − G_obs)·c. A mask without gaps is the plain pass on x
// itself, bitwise, and leaves ws.xPatch alone.
//
//streampca:noalloc
func (en *Engine) patchProject(slot int, x []float64, mask []bool) (ny2 float64, nMiss int, err error) {
	st := &en.state
	ws := en.ws
	d, k := en.cfg.Dim, en.k
	y, coef := ws.yMat.Data()[slot*d:(slot+1)*d], ws.coefs.Data()[slot*k:(slot+1)*k]
	if len(mask) != d {
		return 0, 0, errMaskLength
	}
	idx := ws.gapIdx
	for i, ok := range mask {
		if !ok {
			idx[nMiss] = i
			nMiss++
		}
	}
	idx = idx[:nMiss]
	mean := st.Mean
	xp := x
	if nMiss > 0 {
		if d-nMiss <= k {
			return 0, 0, errFewObserved // an all-false mask included
		}
		xp = ws.xPatch
		copy(xp, x)
		for _, i := range idx {
			xp[i] = mean[i]
		}
	}
	ny2 = en.pool.CenterProject(y, coef, xp, mean, st.Vectors, ws.cpPart)
	if math.IsNaN(ny2) || math.IsInf(ny2, 0) {
		return 0, 0, errGapNonFinite
	}
	if nMiss == 0 {
		return ny2, 0, nil
	}

	vd := st.Vectors.Data()
	gd := ws.gapG.Data()
	for i := range gd {
		gd[i] = 0
	}
	if 2*nMiss <= d {
		for a := 0; a < k; a++ {
			gd[a*k+a] = 1
		}
		for _, i := range idx {
			addOuterLower(gd, -1, vd[i*k:i*k+k])
		}
	} else {
		for i, ok := range mask {
			if ok {
				addOuterLower(gd, 1, vd[i*k:i*k+k])
			}
		}
	}
	if !solveSPDInto(coef, ws.gapG, coef, ws.gapL, ws.rowTmp) {
		return 0, 0, errCholesky
	}
	for _, i := range idx {
		v := mat.Dot(vd[i*k:i*k+k], coef)
		y[i] = v
		xp[i] = mean[i] + v
		ny2 += v * v
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
