package mat

// Pool is the kernel context of one engine: the fused d-proportional kernels
// of the streaming PCA hot path plus the private scratch BasisUpdate needs.
// Every kernel runs on the caller's goroutine — the system parallelises by
// partitioning the stream across engines, never inside a kernel, so a
// result never depends on the host's core count. The zero Pool is valid. A
// Pool is not safe for concurrent use: one owner, like the engine workspace
// it serves.
type Pool struct {
	// scratch is sized by Reserve before the first kernel that needs it.
	scratch []float64
}

// NewPool returns an empty kernel context. The argument is ignored; it stays
// in the signature for existing callers.
func NewPool(int) *Pool { return &Pool{} }

// Reserve grows the private scratch buffer to at least n floats. Kernel
// methods that need scratch (BasisUpdate, BasisUpdateVec) require a prior
// Reserve; sizing up front is what keeps the kernels allocation-free.
func (p *Pool) Reserve(n int) {
	if len(p.scratch) < n {
		p.scratch = make([]float64, n)
	}
}

// Close is a no-op: a Pool owns no goroutines or other resources. It stays
// for existing callers.
func (p *Pool) Close() {}

// Mul computes dst = a·b like the package-level Mul.
//
//streampca:noalloc
func (p *Pool) Mul(dst, a, b *Dense) *Dense {
	return Mul(dst, a, b)
}

// AddMulTARows accumulates dst += Aᵀ·B over the first r rows of a and b like
// the package-level AddMulTARows.
//
//streampca:noalloc
func (p *Pool) AddMulTARows(dst, a, b *Dense, r int) {
	AddMulTARows(dst, a, b, r)
}

// SyrkRows computes the leading r×r block of dst = A·Aᵀ like the
// package-level SyrkRows.
//
//streampca:noalloc
func (p *Pool) SyrkRows(dst, a *Dense, r int) {
	SyrkRows(dst, a, r)
}

// BasisUpdate applies the fused in-place rank-c basis update
//
//	E ← E·M + Yᵀ·W
//
// row-wise: vecs is the d×k basis E (updated in place), mt the k×k
// TRANSPOSED map Mᵀ (mt[j][l] = M[l][j]), y the (≥r)×d panel of centered
// rows, w the (≥r)×k update coefficients. One streaming pass per basis row
// replaces the Mul + AddMulTARows + CopyFrom triple of the staged update —
// a third of the d×k memory traffic. Requires Reserve(k+r) scratch.
//
//streampca:noalloc
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

// BasisUpdateVec is the rank-one specialization of BasisUpdate: the update
// panel is a single centered vector y with per-column coefficients yw
// (E ← E·M + y·ywᵀ). The per-row arithmetic matches the rank-one engine
// rebuild exactly. Requires Reserve(k) scratch.
//
//streampca:noalloc
func (p *Pool) BasisUpdateVec(vecs, mt *Dense, y, yw []float64) {
	k := vecs.cols
	d := vecs.rows
	if mt.rows != k || mt.cols != k {
		panic("mat: Pool.BasisUpdateVec map shape mismatch")
	}
	if len(y) != d || len(yw) != k {
		panic("mat: Pool.BasisUpdateVec vector length mismatch")
	}
	if len(p.scratch) < k {
		panic("mat: Pool.BasisUpdateVec scratch not reserved")
	}
	basisUpdateVecSpan(vecs, mt, y, yw, 0, d, p.scratch)
}

// CenterProject runs the fused center/project pass y = x − mean,
// coef = Eᵀy, returning ‖y‖². The reduction is panel-chunked: rows are cut
// into fixed cpPanel-sized panels, each panel accumulates its k+1 partial
// sums into part (length ≥ CenterProjectPanels(d)·(k+1)), and the partials
// are folded into coef in panel order. coef is overwritten.
//
//streampca:noalloc
func (p *Pool) CenterProject(y, coef, x, mean []float64, vecs *Dense, part []float64) float64 {
	d := vecs.rows
	k := vecs.cols
	if len(x) != d || len(y) != d || len(mean) != d || len(coef) != k {
		panic("mat: Pool.CenterProject length mismatch")
	}
	np := CenterProjectPanels(d)
	if len(part) < np*(k+1) {
		panic("mat: Pool.CenterProject partial buffer too small")
	}
	centerProjectSpan(y, x, mean, vecs, part, 0, np)
	// Fold the panel partials in panel order (the canonical reduction).
	for j := range coef {
		coef[j] = 0
	}
	var ny2 float64
	for pi := 0; pi < np; pi++ {
		pp := part[pi*(k+1) : pi*(k+1)+k+1]
		for j := range coef {
			coef[j] += pp[j]
		}
		ny2 += pp[k]
	}
	return ny2
}
