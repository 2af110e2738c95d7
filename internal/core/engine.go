package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"streampca/internal/eig"
	"streampca/internal/mat"
	"streampca/internal/robust"
)

// Update reports what a single Observe call did to the engine state.
type Update struct {
	// Seq is the 1-based index of this observation within the engine.
	Seq int64
	// Weight is the robust observation weight w = W(r²/σ²); 0 means the
	// vector was fully rejected as an outlier.
	Weight float64
	// Residual2 is the squared fit residual r² against the first p
	// components (eq. 4).
	Residual2 float64
	// T is the squared standardized residual r²/σ² the weight was computed
	// from.
	T float64
	// Sigma2 is the M-scale after this update.
	Sigma2 float64
	// Outlier is true when T exceeded Config.OutlierT.
	Outlier bool
	// Warmup is true while the observation was only buffered (eigensystem
	// not yet initialized).
	Warmup bool
	// Initialized is true on the exact call that triggered warm-up
	// completion.
	Initialized bool
	// Patched is the number of missing entries filled in (masked input
	// only).
	Patched int
}

// Engine is a streaming robust PCA estimator. It is not safe for concurrent
// use; the pipeline layer gives each engine its own goroutine, matching the
// paper's stateful single-threaded InfoSphere operator.
type Engine struct {
	cfg Config
	k   int // p+q maintained components

	// state is the eigensystem; its Vectors (d×k) is only the export of
	// basis, refreshed by exportBasis wherever the d×k layout is read.
	state Eigensystem
	// basis is the live eigenbasis, component-major: a k×d matrix whose row j
	// is eigenvector j (Eᵀ), so every per-row kernel streams d-long rows. It
	// is the only basis the update paths read or write; next is the buffer a
	// rebuild writes into before the two swap.
	basis, next *mat.Dense
	minSigma2   float64
	ready       bool

	warmup [][]float64
	// warmupMasks[i] is non-nil when warmup[i] arrived gappy; its masked
	// entries hold provisional bin-mean fills that initialize() refines by
	// iterative re-patching (Yip et al.'s scheme on the buffer).
	warmupMasks [][]bool
	// per-bin running sums for warm-up gap filling (lazily allocated)
	binSum, binCount []float64

	sinceSync    int64
	updatesSince int // updates since last re-orthonormalization

	// disableWarmupRefine is a test hook for A/B-ing the gappy warm-up
	// refinement.
	disableWarmupRefine bool

	// scale-collapse rescue state (see Config.RescueStreak)
	zeroStreak int
	rejectedR2 []float64 // ring buffer of recent rejected residuals
	rejectedAt int
	rescues    int64

	// ws owns every scratch buffer of the steady-state Observe path; see
	// workspace for the aliasing rules.
	ws *workspace

	// blockC is the rank-c chunk width ObserveBlock folds at, the
	// mat.BlockSize cost-model pick. Results depend on blockC (a different
	// fold width rounds differently; see
	// TestObserveBlockMatchesObserveAcrossWidths), which is why
	// mat.BlockSize is a pure function of (d, k) and never timed.
	blockC int
}

// NewEngine validates cfg and returns a ready-to-feed engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	en := newEngine(cfg)
	en.warmup = make([][]float64, 0, cfg.InitSize)
	return en, nil
}

// newEngine allocates an engine for a validated cfg: its basis buffers,
// workspace and chunk width.
func newEngine(cfg Config) *Engine {
	k := cfg.Components + cfg.Extra
	blockC := mat.BlockSize(cfg.Dim, k, blockMax)
	return &Engine{
		cfg:    cfg,
		k:      k,
		basis:  mat.NewDense(k, cfg.Dim),
		next:   mat.NewDense(k, cfg.Dim),
		ws:     newWorkspace(cfg.Dim, k, blockC),
		blockC: blockC,
	}
}

// Close is a no-op: an engine runs every kernel on the caller's goroutine
// and holds nothing beyond memory. It is kept so callers that close engines
// they discard still compile. Safe on nil.
func (en *Engine) Close() {}

// Config returns the validated configuration the engine runs with.
func (en *Engine) Config() Config { return en.cfg }

// Ready reports whether warm-up has completed and the eigensystem exists.
func (en *Engine) Ready() bool { return en.ready }

// Count returns the number of observations absorbed (including warm-up).
func (en *Engine) Count() int64 {
	if !en.ready {
		return int64(len(en.warmup))
	}
	return en.state.Count
}

// Spectrum returns the eigenvalues, the M-scale σ² and the effective sample
// size as of the last update (zero before warm-up completes). The slice is
// engine-owned: read it before the next update and never write it.
func (en *Engine) Spectrum() (values []float64, sigma2, effN float64) {
	return en.state.Values, en.state.Sigma2, en.state.SumU
}

// SinceSync returns the number of observations absorbed since the last
// synchronization (or since initialization). The parallel criterion of
// §II-C allows a merge only once this exceeds 1.5·N.
func (en *Engine) SinceSync() int64 { return en.sinceSync }

// Snapshot returns a deep copy of the current eigensystem, or an error when
// warm-up has not completed.
func (en *Engine) Snapshot() (*Eigensystem, error) {
	if !en.ready {
		return nil, errors.New("core: engine not initialized yet")
	}
	en.exportBasis()
	return en.state.Clone(), nil
}

// Eigensystem returns the engine's eigensystem as of the last update, for
// read-only inspection without a copy; it panics when warm-up has not
// completed. The result is engine-owned: each call refreshes its Vectors from
// the live basis, and later updates advance its other fields in place, so
// call it again after updating rather than holding it across updates.
func (en *Engine) Eigensystem() *Eigensystem {
	if !en.ready {
		panic("core: engine not initialized yet")
	}
	en.exportBasis()
	return &en.state
}

// exportBasis refreshes state.Vectors (d×k) from the component-major basis:
// the seam where the engine's layout meets the d×k one of Eigensystem,
// checkpoints and snapshots.
//
//streampca:noalloc
func (en *Engine) exportBasis() { en.state.Vectors.TransposeFrom(en.basis) }

// loadBasis installs state.Vectors as the component-major basis, after
// initialization or a resume wrote a new d×k one.
//
//streampca:noalloc
func (en *Engine) loadBasis() { en.basis.TransposeFrom(en.state.Vectors) }

// reorthonormalize restores an orthonormal basis (completing any zeroed
// direction) through its d×k export, so one orthonormalizer serves every
// caller; it costs O(d·k) beyond the orthonormalization itself.
//
//streampca:noalloc
func (en *Engine) reorthonormalize() {
	en.exportBasis()
	eig.OrthonormalizeWS(en.state.Vectors, en.ws.orth)
	en.loadBasis()
}

// errNonFinite is the shared rejection for complete-vector entry points fed
// NaN or Inf entries.
var errNonFinite = errors.New("core: observation contains non-finite values; use ObserveMasked")

// validateObservation checks that x is a complete observation of the right
// length with only finite entries — the admission contract of Observe and
// ObserveBlock. It allocates only on the error path.
func validateObservation(x []float64, dim int) error {
	if len(x) != dim {
		return fmt.Errorf("core: observation length %d, want %d", len(x), dim)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNonFinite
		}
	}
	return nil
}

// Observe absorbs one complete observation vector and returns the update
// report. The vector must have length Config.Dim and contain only finite
// values; use ObserveMasked (or ObserveAuto) for gappy data.
//
//streampca:noalloc
func (en *Engine) Observe(x []float64) (Update, error) {
	if err := validateObservation(x, en.cfg.Dim); err != nil {
		return Update{}, err
	}
	if !en.ready {
		return en.bufferWarmupMasked(x, nil)
	}
	return en.observeOne(x, nil)
}

// observeOne absorbs one row (mask nil when complete) into a ready engine as
// a chunk of one, on the stack; its one append, if any, lands in ub.
//
//streampca:noalloc
func (en *Engine) observeOne(x []float64, mask []bool) (Update, error) {
	xs, ms, ub := [1][]float64{x}, [1][]bool{mask}, [1]Update{}
	_, err := en.observeChunk(xs[:], ms[:], ub[:0])
	return ub[0], err
}

// ObserveAuto routes complete vectors to Observe and vectors containing NaN
// entries to ObserveMasked with the NaN positions treated as gaps.
func (en *Engine) ObserveAuto(x []float64) (Update, error) {
	if len(x) != en.cfg.Dim {
		return en.Observe(x) // rejected there for its length
	}
	mask, gaps := en.ws.autoMask, 0
	for i, v := range x {
		if mask[i] = !math.IsNaN(v); !mask[i] {
			gaps++
		}
	}
	if gaps == 0 {
		return en.Observe(x)
	}
	return en.ObserveMasked(x, mask)
}

func (en *Engine) bufferWarmupMasked(x []float64, mask []bool) (Update, error) {
	en.warmup = append(en.warmup, mat.CopyVec(x))
	if mask != nil {
		m := make([]bool, len(mask))
		copy(m, mask)
		mask = m
	}
	en.warmupMasks = append(en.warmupMasks, mask)
	seq := int64(len(en.warmup))
	if len(en.warmup) < en.cfg.InitSize {
		return Update{Seq: seq, Warmup: true, Weight: 1}, nil
	}
	if err := en.initialize(); err != nil {
		// Drop the oldest half of the buffer and keep collecting; a fully
		// degenerate buffer (all-identical vectors) cannot seed a basis.
		en.warmup = en.warmup[len(en.warmup)/2:]
		en.warmupMasks = en.warmupMasks[len(en.warmupMasks)/2:]
		return Update{Seq: seq, Warmup: true, Weight: 1}, err
	}
	return Update{Seq: seq, Warmup: true, Initialized: true, Weight: 1, Sigma2: en.state.Sigma2}, nil
}

// initialize seeds the eigensystem from the warm-up buffer, then replays
// nothing: the buffered vectors count as absorbed history through the
// running sums. The seed is the offline Maronna fit so that outliers in the
// warm-up buffer cannot poison the initial basis or inflate the initial
// eigenvalues ("the iteration starts from a non-robust set of eigenspectra"
// is the paper's failure mode; a robust start removes the transient). When
// the robust fit fails (degenerate buffer) a classic decomposition is
// attempted as a fallback.
func (en *Engine) initialize() error {
	n0 := len(en.warmup)
	alpha := en.cfg.Alpha
	u := 0.0
	for i := 0; i < n0; i++ {
		u = alpha*u + 1
	}

	// Gappy warm-up vectors carry provisional bin-mean fills; refine them
	// by iterating fit → re-patch → fit on the buffer until the basis
	// stabilizes — the batch scheme of Yip et al. that §II-D cites,
	// applied only to the small warm-up set. Without this, a systematic
	// gap pattern (e.g. every red end missing) can seed a basis whose
	// self-patched reconstructions confirm it forever.
	en.refineGappyWarmup()

	// Pre-filter gross outliers by robust distance from the coordinatewise
	// median. Maronna weighting alone cannot reject an outlier that made
	// it *into* the warm-up basis (its residual is then ≈ 0 and it keeps
	// full weight), which is the standard breakdown mode of residual-based
	// robust PCA when the buffer is barely larger than the rank.
	seedData := filterGrossOutliers(en.warmup, en.cfg.Rho, en.cfg.Delta, en.cfg.OutlierT, en.k)

	fit, err := robustFit(seedData, en.cfg.Components, en.k, en.cfg.Rho, en.cfg.Delta, 25)
	var st Eigensystem
	if err == nil && fit.sigma2 > 0 && fit.meanW > 0 {
		// Small-sample bias correction: residuals against a basis fitted
		// from the same n0 points underestimate the true scale.
		if p := en.cfg.Components; n0 > p+1 {
			fit.sigma2 *= float64(n0) / float64(n0-p)
		}
		meanWR2 := fit.meanWR2
		if meanWR2 <= 0 {
			meanWR2 = fit.sigma2
		}
		// Re-estimate the seed eigenvalues robustly (§II-B: "robust
		// eigenvalues can be computed for any basis"): the M-scale of the
		// per-direction projections ignores outliers that survived into
		// the warm-up basis, so a contaminated direction starts with a
		// *small* eigenvalue and is rotated out by the first fresh data
		// instead of dominating the system for N·ln(λ_bad/λ_true)
		// observations.
		vecs := fit.basis.T()
		if lam, lerr := RobustEigenvalues(vecs, fit.mean, en.warmup, en.cfg.Rho, en.cfg.Delta); lerr == nil {
			scale := fit.sigma2 * fit.meanW / meanWR2
			for j := range fit.vals {
				fit.vals[j] = lam[j] * scale
			}
			sortEigensystem(vecs, fit.vals)
		}
		st = Eigensystem{Mean: fit.mean, Vectors: vecs, Values: fit.vals, Sigma2: fit.sigma2,
			SumU: u, SumV: u * fit.meanW, SumQ: u * meanWR2}
	} else if st, err = en.classicFit(u); err != nil {
		return err
	}
	st.Count = int64(n0)
	en.state = st
	en.minSigma2 = 1e-12*st.Sigma2 + math.SmallestNonzeroFloat64
	en.loadBasis()
	en.sinceSync = int64(n0)
	en.ready = true
	en.warmup = nil
	return nil
}

// classicFit is the non-robust warm-up fallback: plain SVD of the centered
// buffer with unit weights.
func (en *Engine) classicFit(u float64) (Eigensystem, error) {
	n0 := len(en.warmup)
	d := en.cfg.Dim
	mu := make([]float64, d)
	for _, x := range en.warmup {
		mat.Axpy(1, x, mu)
	}
	mat.Scale(1/float64(n0), mu)

	// Top-k left singular vectors of the centered buffer.
	basis, svals, err := leftSingular(centered(en.warmup, mu), en.k)
	if err != nil {
		return Eigensystem{}, err
	}

	// Residuals against the first p components seed the M-scale.
	p := en.cfg.Components
	r2 := make([]float64, n0)
	var sumR2, sumY2 float64
	y := make([]float64, d)
	coef := make([]float64, en.k)
	for i, x := range en.warmup {
		t := mat.CenterProject(y, coef, x, mu, basis)
		sumY2 += t
		for j := 0; j < p; j++ {
			t -= coef[j] * coef[j]
		}
		r2[i] = max(t, 0)
		sumR2 += r2[i]
	}
	sigma2, errS := robust.MScale(en.cfg.Rho, r2, en.cfg.Delta, 0)
	if errS != nil || sigma2 <= 0 {
		// Noise-free warm-up data: fall back to a small fraction of the
		// total variance so standardized residuals stay finite.
		sigma2 = 1e-9 * sumY2 / float64(n0)
		if sigma2 <= 0 {
			return Eigensystem{}, errors.New("core: degenerate warm-up buffer (zero variance)")
		}
	}

	// Eigenvalues in the units of the weighted covariance of eq. (7):
	// C = σ²·Σyyᵀ/Σ(w·r²) with unit warm-up weights.
	if sumR2 <= 0 {
		sumR2 = float64(n0) * sigma2
	}
	vals := make([]float64, en.k)
	for j := 0; j < en.k && j < len(svals); j++ {
		vals[j] = sigma2 * svals[j] * svals[j] / sumR2
	}
	// The α-decayed running sums treat the buffer as streamed with w=1.
	return Eigensystem{Mean: mu, Vectors: basis.T(), Values: vals, Sigma2: sigma2,
		SumU: u, SumV: u, SumQ: u * (sumR2 / float64(n0))}, nil
}

// leftSingular returns the top-k left singular vectors of the data matrix
// whose columns are the rows of the n×d y (centered observations),
// component-major as the rows of a k×d matrix, and all its singular values,
// from the smaller Gram. With fewer rows than bins that is the n×n Y·Yᵀ
// (SyrkRows): TridiagSym gives Y·Yᵀ = V·Λ·Vᵀ, sⱼ = √λⱼ, and only the k wanted
// vectors uⱼ = Σᵢ Vᵢⱼ·yᵢ/sⱼ are formed, in one MulStack over Y's d-long rows.
// Otherwise the d×d YᵀY's eigenvectors are the wanted vectors themselves.
// Singular values under 1e-13·s₀·√max(n, d) are zeroed, and a vector among
// the k built from one is completed to an orthonormal set.
func leftSingular(y *mat.Dense, k int) (*mat.Dense, []float64, error) {
	n, d := y.Dims()
	if k > n {
		return nil, nil, fmt.Errorf("core: warm-up buffer rank %d below k=%d", n, k)
	}
	g := mat.NewDense(min(n, d), min(n, d))
	if n >= d {
		mat.Gram(g, y)
	} else {
		mat.SyrkRows(g, y, n)
	}
	lam, v, ok := eig.TridiagSym(g, nil)
	if !ok {
		return nil, nil, errors.New("core: warm-up SVD failed")
	}
	s := make([]float64, len(lam))
	tol := 1e-13 * math.Sqrt(max(lam[0], 0)) * math.Sqrt(float64(max(n, d)))
	for j, l := range lam {
		if sj := math.Sqrt(max(l, 0)); sj > tol {
			s[j] = sj
		}
	}
	basis := mat.NewDense(k, d)
	if n >= d {
		for j := 0; j < k; j++ {
			v.Col(j, basis.Row(j))
		}
		return basis, s, nil
	}
	a, null := mat.NewDense(k, n), false
	for j := 0; j < k; j++ {
		if s[j] == 0 {
			null = true
			continue
		}
		for i := 0; i < n; i++ {
			a.Set(j, i, v.At(i, j)/s[j])
		}
	}
	mat.MulStack(basis, a, y, y, 0)
	if null {
		cols := basis.T()
		eig.Orthonormalize(cols)
		basis.TransposeFrom(cols)
	}
	return basis, s, nil
}

// rebuildEigensystem performs the rank-one eigensystem update of eqs. 1–3:
// conceptually it decomposes the d×(k+1) matrix A with columns eⱼ·√(γ2·λⱼ)
// and y·√(yCoef) and installs the top-k left singular system (E = U,
// Λ = S²). Chunk slot 0 of ws.yMat and ws.coefs must already hold the
// centered vector and its projections from observeChunk's pass, and ny2 its
// ‖y‖².
//
// A is never materialized. Writing A = [E·D | √yCoef·y] with
// D = diag(√(γ2·λⱼ)) and using EᵀE = I (maintained by construction and by
// the periodic re-orthonormalization), the Gram matrix of the thin-SVD
// route is known analytically:
//
//	AᵀA = ⎡ D²            D·(√yCoef·Eᵀy) ⎤
//	      ⎣ (√yCoef·Eᵀy)ᵀ·D   yCoef·‖y‖² ⎦
//
// and Eᵀy is exactly the projections, ‖y‖² exactly ny2 — both already paid
// for. That matrix is a symmetric arrowhead, whose eigenproblem eig.ArrowSym
// solves in O(k²) through its secular equation. It gives Λ directly, and
// installRebuild forms the new basis in one O(d·k) pass.
//
//streampca:noalloc
func (en *Engine) rebuildEigensystem(gamma2, yCoef, ny2 float64) {
	st := &en.state
	k := en.k
	ws := en.ws
	scale := ws.scale
	coef := ws.coefs.Row(0)
	yCoef = max(yCoef, 0)
	sy := math.Sqrt(yCoef)
	for j := 0; j < k; j++ {
		scale[j] = math.Sqrt(gamma2 * max(st.Values[j], 0))
		ws.arrowD[j] = scale[j] * scale[j]
		ws.arrowZ[j] = scale[j] * sy * coef[j]
	}
	scale[k] = sy
	lam, v, ok := eig.ArrowSym(ws.arrowD, ws.arrowZ, yCoef*ny2, ws.arrow)
	if !ok {
		// Keep the previous eigensystem; the decayed sums still advance so
		// a single pathological vector cannot wedge the stream.
		return
	}
	en.installRebuild(lam, v, 1)
}

// installRebuild is the shared tail of the rank-one and rank-c rebuilds:
// given the eigenpairs (lam, v) of the (k+c)×(k+c) Gram of
// A = [E·diag(scale[:k]) | Yᵀ·diag(scale[k:k+c])], it installs Λ = S² (with
// a numerical-null threshold) and the top-k left singular vectors
// U = A·V·S⁻¹. In the component-major layout that is one product over the
// stacked operand [B; Y[:c]] (mat.MulStack):
//
//	B_new = Mᵀ·B + Wᵀ·Y,  (Mᵀ | Wᵀ)[j][t] = scale_t·V[t][j]/s_j
//
// written into en.next, which then swaps with en.basis. Directions whose
// singular value falls under the threshold are zeroed and completed to an
// orthonormal set.
//
//streampca:noalloc
func (en *Engine) installRebuild(lam []float64, v *mat.Dense, c int) {
	st := &en.state
	ws := en.ws
	k := en.k
	kc := k + c
	smax := 0.0
	if lam[0] > 0 {
		smax = math.Sqrt(lam[0])
	}
	tol := 1e-13 * smax * math.Sqrt(float64(en.cfg.Dim))
	tol2 := tol * tol
	null := 0
	for j := 0; j < k; j++ {
		if lam[j] > tol2 && lam[j] > 0 {
			st.Values[j] = lam[j]
			ws.invs[j] = 1 / math.Sqrt(lam[j])
		} else {
			st.Values[j] = 0
			ws.invs[j] = 0 // zeroes the direction; completed below
			null++
		}
	}
	vdat := v.Data()
	ad := ws.amap.Data()
	an := ws.amap.Cols()
	for j := 0; j < k; j++ {
		inv := ws.invs[j]
		row := ad[j*an : j*an+kc]
		for t := range row {
			row[t] = ws.scale[t] * vdat[t*kc+j] * inv
		}
	}
	mat.MulStack(en.next, ws.amap, en.basis, ws.yMat, c)
	en.basis, en.next = en.next, en.basis
	if null > 0 {
		en.reorthonormalize()
	}
}

// refineGappyWarmup iterates robust fit → least-squares re-patch over the
// warm-up buffer until the fitted basis stabilizes (or a few rounds pass),
// replacing the provisional bin-mean fills of gappy buffer entries with
// model-consistent reconstructions. No-op for fully observed buffers.
func (en *Engine) refineGappyWarmup() {
	if en.disableWarmupRefine {
		return
	}
	anyGaps := false
	for _, m := range en.warmupMasks {
		if m != nil {
			anyGaps = true
			break
		}
	}
	if !anyGaps {
		return
	}
	var prevBasis *mat.Dense
	for iter := 0; iter < 3; iter++ {
		fit, err := robustFit(en.warmup, en.cfg.Components, en.k, en.cfg.Rho, en.cfg.Delta, 10)
		if err != nil {
			return
		}
		vecs := fit.basis.T()
		for i, mask := range en.warmupMasks {
			if mask == nil {
				continue
			}
			patched, _, perr := patchLS(vecs, fit.mean, en.warmup[i], mask)
			if perr == nil {
				en.warmup[i] = patched
			}
		}
		if prevBasis != nil && affinity(prevBasis, fit.basis) > 1-1e-6 {
			return
		}
		prevBasis = fit.basis
	}
}

// filterGrossOutliers drops buffer vectors whose squared distance from the
// coordinatewise median, standardized by its M-scale, exceeds outlierT. The
// filter never shrinks the buffer below k+2 vectors (it returns the input
// unchanged instead), so a pathological buffer still seeds something.
func filterGrossOutliers(xs [][]float64, rho robust.Rho, delta, outlierT float64, k int) [][]float64 {
	n := len(xs)
	if n < 4 {
		return xs
	}
	d := len(xs[0])
	med := make([]float64, d)
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		for i, x := range xs {
			col[i] = x[j]
		}
		med[j] = quickselectMedianFloat(col)
	}
	dist2 := make([]float64, n)
	for i, x := range xs {
		var s float64
		for j := 0; j < d; j++ {
			t := x[j] - med[j]
			s += t * t
		}
		dist2[i] = s
	}
	s2, err := robust.MScale(rho, dist2, delta, 0)
	if err != nil || s2 <= 0 {
		return xs
	}
	keep := make([][]float64, 0, n)
	for i, x := range xs {
		if outlierT <= 0 || dist2[i]/s2 <= outlierT {
			keep = append(keep, x)
		}
	}
	if len(keep) < k+2 {
		return xs
	}
	return keep
}

// quickselectMedianFloat returns the lower median, mutating its argument.
func quickselectMedianFloat(c []float64) float64 {
	sort.Float64s(c)
	return c[(len(c)-1)/2]
}

// sortEigensystem reorders vals descending, permuting the columns of basis
// to match.
func sortEigensystem(basis *mat.Dense, vals []float64) {
	k := len(vals)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	sortedVals := make([]float64, k)
	cols := mat.NewDense(basis.Rows(), k)
	buf := make([]float64, basis.Rows())
	for newJ, oldJ := range order {
		sortedVals[newJ] = vals[oldJ]
		cols.SetCol(newJ, basis.Col(oldJ, buf))
	}
	copy(vals, sortedVals)
	basis.CopyFrom(cols)
}

// recordRejected appends r2 to the bounded ring buffer of recently
// rejected residuals.
func (en *Engine) recordRejected(r2 float64) {
	if en.rejectedR2 == nil {
		en.rejectedR2 = make([]float64, 0, rejectedCap)
	}
	if len(en.rejectedR2) < rejectedCap {
		en.rejectedR2 = append(en.rejectedR2, r2)
		return
	}
	en.rejectedR2[en.rejectedAt] = r2
	en.rejectedAt = (en.rejectedAt + 1) % rejectedCap
}

// rejectedMedian returns the median of the rejected-residual buffer (0 when
// empty), sorting into workspace scratch.
func (en *Engine) rejectedMedian() float64 {
	if len(en.rejectedR2) == 0 {
		return 0
	}
	c := en.ws.med[:len(en.rejectedR2)]
	copy(c, en.rejectedR2)
	sort.Float64s(c)
	return c[len(c)/2]
}

// Rescues returns how many times the scale-collapse rescue fired.
func (en *Engine) Rescues() int64 { return en.rescues }

// MarkSynced resets the since-last-sync observation counter; the
// synchronization layer calls it after a completed merge.
func (en *Engine) MarkSynced() { en.sinceSync = 0 }

// ShouldSync implements the data-driven criterion of §II-C: participate in
// a synchronization only when the observations absorbed since the last one
// exceed factor·N, with N = 1/(1−α) the effective window. The paper uses
// factor = 1.5 as "a good compromise between speed and consistency". For
// α = 1 (infinite memory) the criterion always allows syncing.
func (en *Engine) ShouldSync(factor float64) bool {
	if !en.ready {
		return false
	}
	n := en.cfg.WindowN()
	if n == 0 {
		return true
	}
	return float64(en.sinceSync) > factor*n
}
