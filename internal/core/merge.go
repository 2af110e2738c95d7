package core

import (
	"errors"
	"math"

	"streampca/internal/eig"
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
// rank-one term). When the means agree to within numerical noise the last
// column vanishes and the update reduces to the fast approximation of
// eq. (16). The stacked A is d×(2k+1) and is decomposed with a thin SVD —
// the "most computation-intensive operation of the algorithm" per §III-B.
//
// The running sums add (the criterion of ShouldSync guarantees the two
// histories are statistically independent), the scale merges v-weighted,
// and the engine's since-sync counter resets.
func (en *Engine) MergeSnapshot(o *Eigensystem) error { return en.merge(o, true) }

// MergeApprox is the fast path of eq. (16): it ignores the mean difference
// entirely (A is d×2k). It is what the paper runs "when the eigensystem
// vector locations of the components are close to each other", trading a
// bias of order ‖µ₁−µ₂‖² for one fewer SVD column. Exposed separately so
// the ablation bench can quantify the trade.
func (en *Engine) MergeApprox(o *Eigensystem) error { return en.merge(o, false) }

// merge runs mergeInto on the engine's state across the layout seam: the
// basis is exported for the d×k merge and the merged one loaded back.
func (en *Engine) merge(o *Eigensystem, exact bool) error {
	if !en.ready {
		return errors.New("core: cannot merge into an uninitialized engine")
	}
	en.exportBasis()
	if err := mergeInto(&en.state, o, exact); err != nil {
		return err
	}
	en.loadBasis()
	en.MarkSynced()
	return nil
}

// mergeInto folds o into st: eq. (15) when exact, else eq. (16).
func mergeInto(st, o *Eigensystem, exact bool) error {
	if o.Dim() != st.Dim() {
		return errors.New("core: merge dimension mismatch")
	}
	if o.NumComponents() != st.NumComponents() {
		return errors.New("core: merge component-count mismatch")
	}
	if !o.checkFinite() {
		return errors.New("core: refusing to merge non-finite eigensystem")
	}
	v1, v2 := st.SumV, o.SumV
	if v1+v2 <= 0 {
		return errors.New("core: merge with zero total weight")
	}
	g1 := v1 / (v1 + v2)
	g2 := v2 / (v1 + v2)

	d := st.Dim()
	k := st.NumComponents()
	cols := 2 * k
	if exact {
		cols++
	}
	a := mat.NewDense(d, cols)
	writeScaledBasis(a, 0, st.Vectors, st.Values, g1)
	writeScaledBasis(a, k, o.Vectors, o.Values, g2)
	if exact {
		sd := math.Sqrt(g1 * g2)
		for i := 0; i < d; i++ {
			a.Set(i, 2*k, sd*(st.Mean[i]-o.Mean[i]))
		}
	}
	dec, ok := eig.ThinSVD(a)
	if !ok {
		return errors.New("core: merge SVD failed")
	}
	mat.Lerp(st.Mean, g1, st.Mean, g2, o.Mean)
	col := make([]float64, d)
	for j := 0; j < k; j++ {
		st.Values[j] = dec.S[j] * dec.S[j]
		st.Vectors.SetCol(j, dec.U.Col(j, col))
	}
	st.Sigma2 = g1*st.Sigma2 + g2*o.Sigma2
	st.SumU += o.SumU
	st.SumV += o.SumV
	st.SumQ += o.SumQ
	st.Count += o.Count
	return nil
}

// MergeMany folds a set of peer snapshots into a single fresh eigensystem
// without touching any engine — the broadcast strategy's reduction. The
// result weights every system by its SumV and applies the exact pooled
// mean-shift correction pairwise left-to-right.
func MergeMany(systems []*Eigensystem) (*Eigensystem, error) {
	if len(systems) == 0 {
		return nil, errors.New("core: MergeMany of nothing")
	}
	acc := systems[0].Clone()
	for _, s := range systems[1:] {
		if err := mergeInto(acc, s, true); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// writeScaledBasis writes columns eⱼ·√(g·λⱼ) of (vectors, values) into a
// starting at column offset.
func writeScaledBasis(a *mat.Dense, offset int, vectors *mat.Dense, values []float64, g float64) {
	d := vectors.Rows()
	for j, lj := range values {
		if lj < 0 {
			lj = 0
		}
		s := math.Sqrt(g * lj)
		for i := 0; i < d; i++ {
			a.Set(i, offset+j, s*vectors.At(i, j))
		}
	}
}
