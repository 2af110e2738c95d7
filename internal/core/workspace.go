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
// lower rows of the stacked operand in installRebuild; a merge fills the same
// slots with its peer rows. The eigensolvers' returned values and vectors
// live in their workspaces and are only read until the end of the rebuild
// that produced them. Nothing in the workspace is valid across Observe
// calls; it is scratch, not state.
type workspace struct {
	// scale holds the column factors of A = [E·diag(scale[:k]) |
	// Yᵀ·diag(scale[k:k+c])]: √(γ2·λⱼ) per basis column, then √b_m per
	// firing row (one row, √yCoef, on the rank-one path). invs holds the
	// inverse singular values (length k), and amap the k×(k+cmax) rebuild
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

	// rank-c rebuild scratch (rebuildEigensystemBlock), sized for
	// c ≤ cmax = max(blockC, k+1): a chunk's c ≤ blockC centered rows, or a
	// merge's k peer rows and mean difference, with their projections and
	// fold weights, and the small (k+c)-sized eigenproblems — one Gram
	// matrix and eigensolver per width the engine runs (chunks 2..blockC,
	// merges k and k+1) so the solver always runs at the true dimension.
	// The bgram matrices are zeroed once here: the rebuild writes only their
	// upper triangle (all the solvers read), so the lower triangle stays zero
	// forever.
	yMat  *mat.Dense             // cmax×d rows Y of the current rebuild
	coefs *mat.Dense             // cmax×k per-row projections B·y = Eᵀy
	bvals []float64              // fold weights b_m of the rows (length cmax)
	syrk  *mat.Dense             // cmax×cmax Y·Yᵀ inner products
	bgram []*mat.Dense           // [c] → (k+c)×(k+c) analytic Gram
	bsym  []*eig.SymEigWorkspace // [c] → matching eigensolver workspace
	// peer and peerCoefs view the first k rows of yMat and coefs, where a
	// merge loads the peer's eigenvectors and their projections.
	peer, peerCoefs *mat.Dense

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
	cmax := max(blockC, k+1)
	ws := &workspace{
		scale:  make([]float64, k+cmax),
		invs:   make([]float64, k),
		amap:   mat.NewDense(k, k+cmax),
		arrowD: make([]float64, k),
		arrowZ: make([]float64, k),
		arrow:  eig.NewArrowWorkspace(k),
		orth:   eig.NewOrthoWorkspace(d),
		med:    make([]float64, rejectedCap),

		yMat:  mat.NewDense(cmax, d),
		coefs: mat.NewDense(cmax, k),
		bvals: make([]float64, cmax),
		syrk:  mat.NewDense(cmax, cmax),
		bgram: make([]*mat.Dense, cmax+1),
		bsym:  make([]*eig.SymEigWorkspace, cmax+1),

		gapEdges: make([]int, d+3),
		xPatch:   make([]float64, d),
		gapP:     make([]float64, k*(d/2)),
		gapG:     mat.NewDense(k, k),
		gapL:     mat.NewDense(k, k),
		gapTmp:   make([]float64, k),
		autoMask: make([]bool, d),
	}
	ws.peer = mat.NewDenseData(k, d, ws.yMat.Data()[:k*d])
	ws.peerCoefs = mat.NewDenseData(k, k, ws.coefs.Data()[:k*k])
	for c := 1; c <= cmax; c++ {
		if c >= 2 && c <= blockC || c == k || c == k+1 {
			ws.bgram[c] = mat.NewDense(k+c, k+c)
			ws.bsym[c] = eig.NewSymEigWorkspace(k + c)
		}
	}
	return ws
}
