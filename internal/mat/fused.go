package mat

// Fused kernels for the streaming PCA hot path. The engine holds its basis
// component-major — a k×d matrix whose row j is eigenvector j — so every
// d-proportional loop here runs along a contiguous d-long row instead of
// across k ≈ 5 entries. Each kernel runs a fixed per-element instruction
// sequence on its caller's goroutine, so results depend only on the inputs.

// CenterProject is the per-row pass of the engine: y = x − mean and ‖y‖² in
// one sweep, then coef[j] = y·basis[j,:] for the k×d component-major basis,
// two components per sweep over y with split accumulators. It returns ‖y‖²;
// y and coef are overwritten. A NaN or ±Inf in x surfaces in the result.
//
//streampca:noalloc
func CenterProject(y, coef, x, mean []float64, basis *Dense) float64 {
	k, d := basis.rows, basis.cols
	if len(x) != d || len(y) != d || len(mean) != d || len(coef) != k {
		panic("mat: CenterProject length mismatch")
	}
	y, mean = y[:len(x)], mean[:len(x)]
	var s0, s1 float64
	for i := 1; i < len(x); i += 2 {
		y0 := x[i-1] - mean[i-1]
		y1 := x[i] - mean[i]
		y[i-1], y[i] = y0, y1
		s0 += y0 * y0
		s1 += y1 * y1
	}
	if d%2 == 1 {
		yi := x[d-1] - mean[d-1]
		y[d-1] = yi
		s0 += yi * yi
	}
	bd := basis.data
	j := 0
	for ; j+1 < k; j += 2 {
		b0 := bd[j*d : (j+1)*d][:len(y)]
		b1 := bd[(j+1)*d : (j+2)*d][:len(y)]
		var a0, a1, c0, c1 float64
		for i := 1; i < len(y); i += 2 {
			y0, y1 := y[i-1], y[i]
			a0 += y0 * b0[i-1]
			a1 += y1 * b0[i]
			c0 += y0 * b1[i-1]
			c1 += y1 * b1[i]
		}
		if d%2 == 1 {
			a0 += y[d-1] * b0[d-1]
			c0 += y[d-1] * b1[d-1]
		}
		coef[j], coef[j+1] = a0+a1, c0+c1
	}
	if j < k {
		coef[j] = Dot(y, bd[j*d:(j+1)*d])
	}
	return s0 + s1
}

// basisUpdateSpan applies rows [lo, hi) of the fused in-place rank-c basis
// update E ← E·M + Yᵀ·W on a d×k basis: per basis row i, the old row is
// copied into scratch, the r panel values Y[m][i] are gathered, and each new
// entry is one Dot against Mᵀ's row plus the ordered rank-c correction.
// scratch needs k+r floats.
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
