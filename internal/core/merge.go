package core

import (
	"errors"

	"streampca/internal/mat"
)

// MergeSnapshot combines a peer's eigensystem into this engine's state
// following §II-C. The relative weights are the robust decayed weight sums,
// γ₁ = v₁/(v₁+v₂): the location merges as µ = γ₁µ₁ + γ₂µ₂ and the
// covariance as the exact eq. (15), realized in low-rank form as
//
//	C = γ₁·E₁Λ₁E₁ᵀ + γ₂·E₂Λ₂E₂ᵀ + γ₁γ₂·(µ₁−µ₂)(µ₁−µ₂)ᵀ = A·Aᵀ
//
// (the mean-shift outer products of eq. 15 collapse to the single pooled
// rank-one term). A = [E₁·√(γ₁Λ₁) | E₂·√(γ₂Λ₂) | √(γ₁γ₂)(µ₁−µ₂)] has the form
// of the rank-c update's operand, so the merge — the "most
// computation-intensive operation of the algorithm" per §III-B — runs as a
// rank-(k+1) rebuild on the engine's kernels (see merge).
//
// The running sums add (the criterion of ShouldSync guarantees the two
// histories are statistically independent), the scale merges v-weighted,
// and the engine's since-sync counter resets. When the eigensolve fails the
// engine is left untouched and an error is returned.
func (en *Engine) MergeSnapshot(o *Eigensystem) error { return en.merge(o, true) }

// MergeApprox is the fast path of eq. (16): it ignores the mean difference
// entirely, a rank-k rebuild without the mean-difference row. It is what the
// paper runs "when the eigensystem vector locations of the components are
// close to each other", trading a bias of order ‖µ₁−µ₂‖² for one fewer
// row in the rebuild. Exposed separately so the ablation bench can quantify
// the trade.
func (en *Engine) MergeApprox(o *Eigensystem) error { return en.merge(o, false) }

var (
	errMergeUnready = errors.New("core: cannot merge into an uninitialized engine")
	errMergeShape   = errors.New("core: merge shape mismatch")
	errMergeFinite  = errors.New("core: refusing to merge non-finite eigensystem")
	errMergeWeight  = errors.New("core: merge with zero total weight")
	errMergeSolve   = errors.New("core: merge eigensolve failed")
)

// merge folds o into the engine, eq. (15) when exact and eq. (16) otherwise,
// as one rebuildEigensystemBlock: the stacked rows are the peer's k
// eigenvectors with fold weights γ₂·λ₂ⱼ, then, for the exact merge, µ₁−µ₂
// with weight γ₁γ₂, and the engine's own eigenvalues decay by g = γ₁. The
// rows' projections on the engine's basis fill the Gram's off-diagonal
// block.
func (en *Engine) merge(o *Eigensystem, exact bool) error {
	st := &en.state
	d, k := en.cfg.Dim, en.k
	switch {
	case !en.ready:
		return errMergeUnready
	case o.Dim() != d || o.NumComponents() != k || o.Vectors.Rows() != d || o.Vectors.Cols() != k:
		return errMergeShape
	case !o.checkFinite():
		return errMergeFinite
	}
	v1, v2 := st.SumV, o.SumV
	if v1+v2 <= 0 {
		return errMergeWeight
	}
	g1 := v1 / (v1 + v2)
	g2 := v2 / (v1 + v2)

	ws := en.ws
	ws.peer.TransposeFrom(o.Vectors)
	mat.MulBT(ws.peerCoefs, ws.peer, en.basis)
	for m, l := range o.Values {
		ws.bvals[m] = g2 * l
	}
	c := k
	if exact {
		mat.CenterProject(ws.yMat.Row(k), ws.coefs.Row(k), st.Mean, o.Mean, en.basis)
		ws.bvals[k] = g1 * g2
		c++
	}
	if !en.rebuildEigensystemBlock(g1, c) {
		return errMergeSolve
	}
	mat.Lerp(st.Mean, g1, st.Mean, g2, o.Mean)
	st.Sigma2 = g1*st.Sigma2 + g2*o.Sigma2
	st.SumU += o.SumU
	st.SumV += o.SumV
	st.SumQ += o.SumQ
	st.Count += o.Count
	en.MarkSynced()
	return nil
}

// MergeMany folds a set of peer snapshots into a single fresh eigensystem
// without touching any engine — the broadcast strategy's reduction. The
// result weights every system by its SumV and applies the exact pooled
// mean-shift correction pairwise left-to-right, through MergeSnapshot on a
// scratch engine resumed from the first system (which validates its shape
// and finiteness).
func MergeMany(systems []*Eigensystem) (*Eigensystem, error) {
	if len(systems) == 0 {
		return nil, errors.New("core: MergeMany of nothing")
	}
	en, err := ResumeEngine(Config{Dim: systems[0].Dim(), Components: systems[0].NumComponents()}, systems[0])
	if err != nil {
		return nil, err
	}
	for _, s := range systems[1:] {
		if err := en.MergeSnapshot(s); err != nil {
			return nil, err
		}
	}
	return en.Eigensystem(), nil
}
