package mat

// Fused span kernels for the streaming PCA hot path: the bodies behind the
// Pool and panel methods. Each computes a half-open output range with a
// fixed per-element instruction sequence, and every caller passes the full
// range on its own goroutine, so results depend only on the inputs.

// cpPanel is the row granularity of the fused center/project reduction: the
// d-dimensional accumulation of coef = Eᵀy is cut into fixed panels of this
// many rows, each reduced independently into k+1 partial sums and folded in
// panel order — the canonical reduction order of the engine's projections.
// 256 rows × k columns keeps a panel's basis slice L1-resident.
const cpPanel = 256

// CenterProjectPanels returns the number of reduction panels the fused
// center/project pass uses for dimension d; workspace owners size their
// partial-sum buffer as CenterProjectPanels(d)·(k+1).
func CenterProjectPanels(d int) int {
	return (d + cpPanel - 1) / cpPanel
}

// centerProjectSpan computes panels [p0, p1) of the fused center/project
// pass: for each row i of the panel, y[i] = x[i] − mean[i], and the panel's
// partial sums part[pi*(k+1) : pi*(k+1)+k] += y[i]·E[i,:] with ‖y‖²'s panel
// share at part[pi*(k+1)+k]. Rows are consumed in pairs so each pass over
// the k partial accumulators folds two basis rows — half the read-modify-
// write traffic of the row-at-a-time loop.
//
//streampca:noalloc
func centerProjectSpan(y, x, mean []float64, vecs *Dense, part []float64, p0, p1 int) {
	d := vecs.rows
	k := vecs.cols
	vd := vecs.data
	for pi := p0; pi < p1; pi++ {
		lo := pi * cpPanel
		hi := lo + cpPanel
		if hi > d {
			hi = d
		}
		pp := part[pi*(k+1) : pi*(k+1)+k+1]
		for j := range pp {
			pp[j] = 0
		}
		pc := pp[:k]
		var ny2 float64
		i := lo
		for ; i+1 < hi; i += 2 {
			y0 := x[i] - mean[i]
			y1 := x[i+1] - mean[i+1]
			y[i] = y0
			y[i+1] = y1
			ny2 += y0*y0 + y1*y1
			v0 := vd[i*k : i*k+k]
			v1 := vd[(i+1)*k : (i+1)*k+k]
			for j, v0j := range v0 {
				pc[j] += y0*v0j + y1*v1[j]
			}
		}
		for ; i < hi; i++ {
			yi := x[i] - mean[i]
			y[i] = yi
			ny2 += yi * yi
			vrow := vd[i*k : i*k+k]
			for j, vij := range vrow {
				pc[j] += yi * vij
			}
		}
		pp[k] = ny2
	}
}

// basisUpdateSpan applies rows [lo, hi) of the fused in-place rank-c basis
// update E ← E·M + Yᵀ·W: per basis row i, the old row is copied into
// scratch, the r panel values Y[m][i] are gathered, and each new entry is
// one Dot against Mᵀ's row plus the ordered rank-c correction. The per-
// element reduction order (k-dot first, then m = 0..r−1) is fixed, so the
// result is bitwise partition-independent. scratch needs k+r floats.
//
//streampca:noalloc
func basisUpdateSpan(vecs, mt, y, w *Dense, r, lo, hi int, scratch []float64) {
	k := vecs.cols
	dy := y.cols
	wn := w.cols
	vd := vecs.data
	mtd := mt.data
	yd := y.data
	wd := w.data
	row := scratch[:k]
	ya := scratch[k : k+r]
	for i := lo; i < hi; i++ {
		vrow := vd[i*k : i*k+k]
		copy(row, vrow)
		for m := 0; m < r; m++ {
			ya[m] = yd[m*dy+i]
		}
		for j := range vrow {
			acc := Dot(row, mtd[j*k:j*k+k])
			for m := 0; m < r; m++ {
				acc += ya[m] * wd[m*wn+j]
			}
			vrow[j] = acc
		}
	}
}

// basisUpdateVecSpan is the rank-one body: rows [lo, hi) of
// E ← E·M + y·ywᵀ, arithmetic identical to basisUpdateSpan with r = 1 and
// to the historical inline rank-one rebuild loop. scratch needs k floats.
//
//streampca:noalloc
func basisUpdateVecSpan(vecs, mt *Dense, y, yw []float64, lo, hi int, scratch []float64) {
	k := vecs.cols
	vd := vecs.data
	mtd := mt.data
	tmp := scratch[:k]
	for i := lo; i < hi; i++ {
		vrow := vd[i*k : i*k+k]
		copy(tmp, vrow)
		yi := y[i]
		for j := range vrow {
			vrow[j] = Dot(tmp, mtd[j*k:j*k+k]) + yi*yw[j]
		}
	}
}

// addMulTARowsSpan accumulates destination rows [ilo, ihi) of
// dst += Aᵀ·B over the first r rows of a and b — AddMulTARows restricted to
// an output-row range, same 4-way unrolled reduction order per row.
//
//streampca:noalloc
func addMulTARowsSpan(dst, a, b *Dense, r, ilo, ihi int) {
	m, n := a.cols, b.cols
	k := 0
	for ; k+3 < r; k += 4 {
		ak0 := a.data[k*m : (k+1)*m]
		ak1 := a.data[(k+1)*m : (k+2)*m]
		ak2 := a.data[(k+2)*m : (k+3)*m]
		ak3 := a.data[(k+3)*m : (k+4)*m]
		bk0 := b.data[k*n : (k+1)*n]
		bk1 := b.data[(k+1)*n : (k+2)*n]
		bk2 := b.data[(k+2)*n : (k+3)*n]
		bk3 := b.data[(k+3)*n : (k+4)*n]
		for i := ilo; i < ihi; i++ {
			v0, v1, v2, v3 := ak0[i], ak1[i], ak2[i], ak3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			di := dst.data[i*n : (i+1)*n]
			for j, d := range di {
				di[j] = d + v0*bk0[j] + v1*bk1[j] + v2*bk2[j] + v3*bk3[j]
			}
		}
	}
	for ; k < r; k++ {
		ak := a.data[k*m : (k+1)*m]
		bk := b.data[k*n : (k+1)*n]
		for i := ilo; i < ihi; i++ {
			aki := ak[i]
			if aki == 0 {
				continue
			}
			Axpy(aki, bk, dst.data[i*n:(i+1)*n])
		}
	}
}

// syrkRowsSpan computes rows [lo, hi) of the leading r×r block of
// dst = A·Aᵀ (upper entries plus their mirrors); every entry is one
// independent Dot, so any row partition is bitwise identical. The j loop is
// 2-way unrolled: two dots per pass share the loaded a-row stream.
//
//streampca:noalloc
func syrkRowsSpan(dst, a *Dense, r, lo, hi int) {
	n := dst.cols
	kk := a.cols
	for i := lo; i < hi; i++ {
		ai := a.data[i*kk : (i+1)*kk]
		di := dst.data[i*n : i*n+r]
		j := i
		for ; j+1 < r; j += 2 {
			aj0 := a.data[j*kk : (j+1)*kk]
			aj1 := a.data[(j+1)*kk : (j+2)*kk]
			var s0a, s0b, s1a, s1b float64
			m := 0
			for ; m+1 < kk; m += 2 {
				v0, v1 := ai[m], ai[m+1]
				s0a += v0 * aj0[m]
				s0b += v1 * aj0[m+1]
				s1a += v0 * aj1[m]
				s1b += v1 * aj1[m+1]
			}
			if m < kk {
				v := ai[m]
				s0a += v * aj0[m]
				s1a += v * aj1[m]
			}
			v0 := s0a + s0b
			v1 := s1a + s1b
			di[j] = v0
			di[j+1] = v1
			dst.data[j*n+i] = v0
			dst.data[(j+1)*n+i] = v1
		}
		if j < r {
			v := Dot(ai, a.data[j*kk:(j+1)*kk])
			di[j] = v
			dst.data[j*n+i] = v
		}
	}
}
