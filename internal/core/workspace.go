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
// Aliasing rules: observeChunk's center/project pass writes the m-th firing
// row's centered observation and projections into slot m of yMat and coefs,
// and the chunk's one rebuild reads them after its last row — slot 0 alone
// on the rank-one path (rebuildEigensystem), every firing slot of yMat as the
// lower rows of the stacked operand in installRebuild. The eigensolvers' returned values and vectors live in their
// workspaces and are only read until the end of the rebuild that produced
// them. Nothing in the workspace is valid across Observe calls; it is
// scratch, not state.
type workspace struct {
	// scale holds the column factors of A = [E·diag(scale[:k]) |
	// Yᵀ·diag(scale[k:k+c])]: √(γ2·λⱼ) per basis column, then √b_m per
	// firing row (one row, √yCoef, on the rank-one path). invs holds the
	// inverse singular values (length k), and amap the k×(k+blockC) rebuild
	// map [Mᵀ | Wᵀ] whose row j is scale_t·V[t][j]/s_j over the stacked rows
	// t of [B; Y] (see installRebuild).
	scale []float64
	invs  []float64
	amap  *mat.Dense

	// rank-one rebuild scratch (see rebuildEigensystem): the arrowhead Gram
	// AᵀA = [[diag(arrowD), arrowZ], [arrowZᵀ, yCoef·‖y‖²]] and its solver.
	arrowD []float64 // γ2·λⱼ (length k)
	arrowZ []float64 // √(γ2·λⱼ)·√yCoef·coefⱼ (length k)
	arrow  *eig.ArrowWorkspace

	orth *eig.OrthoWorkspace
	med  []float64 // rescue-median sort scratch (capacity rejectedCap)

	// block-update scratch (ObserveBlock), sized by the engine's chunk
	// width blockC: the chunk's centered rows and projections, the rank-c
	// fold weights, and the small (k+c)-sized eigenproblems — one Gram
	// matrix and eigensolver per chunk size so the solver always runs at
	// the true dimension (see rebuildEigensystemBlock). The bgram matrices
	// are zeroed once here: the rebuild writes only their upper triangle
	// (all the solvers read), so the lower triangle stays zero forever.
	yMat  *mat.Dense             // blockC×d centered rows Y of the current chunk
	coefs *mat.Dense             // blockC×k per-row projections B·y = Eᵀy
	bvals []float64              // fold weights b_m of the firing rows (length blockC)
	syrk  *mat.Dense             // blockC×blockC Y·Yᵀ inner products
	bgram []*mat.Dense           // [c] → (k+c)×(k+c) analytic Gram, c = 2..blockC
	bsym  []*eig.SymEigWorkspace // [c] → matching eigensolver workspace

	// gap-patch scratch (patchProject): the edges of the row's runs (0, each
	// missing run's start and end, d), the engine-owned copy that receives the
	// fills (caller rows stay read-only), the basis columns of the smaller side
	// of the mask gathered into a k×n panel (n ≤ d/2), and the k×k observed-bin
	// Gram with its Cholesky factor and substitution vector. autoMask is
	// ObserveAuto's mask.
	gapEdges []int
	xPatch   []float64
	gapP     []float64
	gapG     *mat.Dense
	gapL     *mat.Dense
	gapTmp   []float64
	autoMask []bool
}

func newWorkspace(d, k, blockC int) *workspace {
	if blockC < 1 {
		blockC = 1
	}
	ws := &workspace{
		scale:  make([]float64, k+blockC),
		invs:   make([]float64, k),
		amap:   mat.NewDense(k, k+blockC),
		arrowD: make([]float64, k),
		arrowZ: make([]float64, k),
		arrow:  eig.NewArrowWorkspace(k),
		orth:   eig.NewOrthoWorkspace(d),
		med:    make([]float64, rejectedCap),

		yMat:  mat.NewDense(blockC, d),
		coefs: mat.NewDense(blockC, k),
		bvals: make([]float64, blockC),
		syrk:  mat.NewDense(blockC, blockC),
		bgram: make([]*mat.Dense, blockC+1),
		bsym:  make([]*eig.SymEigWorkspace, blockC+1),

		gapEdges: make([]int, d+3),
		xPatch:   make([]float64, d),
		gapP:     make([]float64, k*(d/2)),
		gapG:     mat.NewDense(k, k),
		gapL:     mat.NewDense(k, k),
		gapTmp:   make([]float64, k),
		autoMask: make([]bool, d),
	}
	for c := 2; c <= blockC; c++ {
		ws.bgram[c] = mat.NewDense(k+c, k+c)
		ws.bsym[c] = eig.NewSymEigWorkspace(k + c)
	}
	return ws
}
