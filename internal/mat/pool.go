package mat

// Pool is the row-major rank-c basis update kept for the repo benchmark's
// isolated kernel timings (mat.basis_update_us.*): the engine itself holds
// its basis component-major and rebuilds it with MulStack, so no engine path
// runs BasisUpdate. The zero Pool is valid; it is not safe for concurrent
// use.
type Pool struct {
	// scratch is sized by Reserve before BasisUpdate runs.
	scratch []float64
}

// NewPool returns an empty Pool. The argument is ignored; it stays in the
// signature for existing callers.
func NewPool(int) *Pool { return &Pool{} }

// Reserve grows the private scratch buffer to at least n floats; BasisUpdate
// requires a prior Reserve, which is what keeps it allocation-free.
func (p *Pool) Reserve(n int) {
	if len(p.scratch) < n {
		p.scratch = make([]float64, n)
	}
}

// Close is a no-op: a Pool owns no goroutines or other resources. It stays
// for existing callers.
func (p *Pool) Close() {}

// BasisUpdate applies the fused in-place rank-c basis update
//
//	E ← E·M + Yᵀ·W
//
// row-wise on a d×k basis: vecs is E (updated in place), mt the k×k
// TRANSPOSED map Mᵀ (mt[j][l] = M[l][j]), y the (≥r)×d panel of centered
// rows, w the (≥r)×k update coefficients. Requires Reserve(k+r) scratch.
func (p *Pool) BasisUpdate(vecs, mt, y, w *Dense, r int) {
	k := vecs.cols
	if mt.rows != k || mt.cols != k {
		panic("mat: Pool.BasisUpdate map shape mismatch")
	}
	if r < 0 || r > y.rows || r > w.rows || y.cols != vecs.rows || w.cols != k {
		panic("mat: Pool.BasisUpdate panel shape mismatch")
	}
	if len(p.scratch) < k+r {
		panic("mat: Pool.BasisUpdate scratch not reserved")
	}
	basisUpdateSpan(vecs, mt, y, w, r, 0, vecs.rows, p.scratch)
}
