package core

import (
	"streampca/internal/eig"
	"streampca/internal/mat"
)

// rejectedCap bounds the ring buffer of recently rejected residuals the
// scale-collapse rescue consults.
const rejectedCap = 64

// workspace owns every scratch buffer the steady-state Observe path touches,
// so an initialized engine absorbs observations with zero heap allocations.
// One workspace per engine, allocated once in NewEngine (or ResumeEngine)
// and never resized: the engine's dimension, component count and chunk width
// are fixed at construction.
//
// Aliasing rules: y holds the centered observation and is read by
// rebuildEigensystem after updateAlpha fills it — the two must not be
// reordered. The eigensolvers' returned values and vectors live in their
// workspaces and are only read until the end of the rebuild that produced
// them. Nothing in the workspace is valid across Observe calls; it is
// scratch, not state.
type workspace struct {
	y     []float64 // centered observation x − µ (length d)
	coef  []float64 // projection coefficients Eᵀy (length k)
	ny2   float64   // ‖y‖² from the same fused pass that filled y and coef
	scale []float64 // per-column √(γ2·λⱼ) factors of A (length k+1)

	// rank-one rebuild scratch (see rebuildEigensystem): the arrowhead Gram
	// AᵀA = [[diag(arrowD), arrowZ], [arrowZᵀ, yCoef·‖y‖²]], its solver, and
	// the k×k update map. mt holds the TRANSPOSED map Mᵀ the rank-one
	// route's fused basis kernel dots rows against; the rank-c route builds
	// its map in natural orientation (mMat below).
	arrowD []float64 // γ2·λⱼ (length k)
	arrowZ []float64 // √(γ2·λⱼ)·√yCoef·coefⱼ (length k)
	arrow  *eig.ArrowWorkspace
	mt     *mat.Dense // k×k transposed update map Mᵀ
	yw     []float64  // per-column y coefficients of the update (length k)
	invs   []float64  // inverse singular values (length k)
	rowTmp []float64  // one basis row, copied before overwrite (length k)

	// cpPart holds the fused center/project pass's panel-partial sums:
	// mat.CenterProjectPanels(d) panels × (k+1) accumulators, folded in
	// panel order.
	cpPart []float64

	orth *eig.OrthoWorkspace
	med  []float64 // rescue-median sort scratch (capacity rejectedCap)

	// block-update scratch (ObserveBlock), sized by the engine's chunk
	// width blockC: the chunk's centered rows and projections, the rank-c
	// fold weights, and the small (k+c)-sized eigenproblems — one Gram
	// matrix and eigensolver per chunk size so the solver always runs at
	// the true dimension (see rebuildEigensystemBlock). The bgram matrices
	// are zeroed once here: the rebuild writes only their upper triangle
	// (all the solvers read), so the lower triangle stays zero forever.
	yMat   *mat.Dense             // blockC×d centered rows Y of the current chunk
	coefs  *mat.Dense             // blockC×k per-row projections Eᵀy
	bvals  []float64              // fold weights b_m of the firing rows (length blockC)
	bscale []float64              // √b_m (length blockC)
	syrk   *mat.Dense             // blockC×blockC Y·Yᵀ inner products
	mMat   *mat.Dense             // k×k rank-c update map M (natural orientation)
	wMat   *mat.Dense             // blockC×k basis-update coefficients W
	eNew   *mat.Dense             // d×k staging buffer for the rebuilt basis
	bgram  []*mat.Dense           // [c] → (k+c)×(k+c) analytic Gram, c = 2..blockC
	bsym   []*eig.SymEigWorkspace // [c] → matching eigensolver workspace

	// gap-patch scratch (patchProject): the missing-bin indices of the row
	// being patched, the engine-owned copy that receives the fills (caller
	// rows stay read-only), and the k×k observed-bin Gram with its Cholesky
	// factor (rowTmp serves the substitution). autoMask is ObserveAuto's mask.
	gapIdx   []int
	xPatch   []float64
	gapG     *mat.Dense
	gapL     *mat.Dense
	autoMask []bool
}

func newWorkspace(d, k, blockC int) *workspace {
	if blockC < 1 {
		blockC = 1
	}
	ws := &workspace{
		y:      make([]float64, d),
		coef:   make([]float64, k),
		scale:  make([]float64, k+1),
		arrowD: make([]float64, k),
		arrowZ: make([]float64, k),
		arrow:  eig.NewArrowWorkspace(k),
		mt:     mat.NewDense(k, k),
		yw:     make([]float64, k),
		invs:   make([]float64, k),
		rowTmp: make([]float64, k),
		cpPart: make([]float64, mat.CenterProjectPanels(d)*(k+1)),
		orth:   eig.NewOrthoWorkspace(d),
		med:    make([]float64, rejectedCap),

		yMat:   mat.NewDense(blockC, d),
		coefs:  mat.NewDense(blockC, k),
		bvals:  make([]float64, blockC),
		bscale: make([]float64, blockC),
		syrk:   mat.NewDense(blockC, blockC),
		mMat:   mat.NewDense(k, k),
		wMat:   mat.NewDense(blockC, k),
		eNew:   mat.NewDense(d, k),
		bgram:  make([]*mat.Dense, blockC+1),
		bsym:   make([]*eig.SymEigWorkspace, blockC+1),

		gapIdx:   make([]int, d),
		xPatch:   make([]float64, d),
		gapG:     mat.NewDense(k, k),
		gapL:     mat.NewDense(k, k),
		autoMask: make([]bool, d),
	}
	for c := 2; c <= blockC; c++ {
		ws.bgram[c] = mat.NewDense(k+c, k+c)
		ws.bsym[c] = eig.NewSymEigWorkspace(k + c)
	}
	return ws
}
