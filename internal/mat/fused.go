package mat

// Fused kernels for the streaming PCA hot path. The engine holds its basis
// component-major — a k×d matrix whose row j is eigenvector j — so every
// d-proportional loop here runs along a contiguous d-long row instead of
// across k ≈ 5 entries. Each kernel runs a fixed per-element instruction
// sequence on its caller's goroutine, so results depend only on the inputs.

// CenterProject is the per-row pass of the engine: y = x − mean and ‖y‖² in
// one sweep, then coef[j] = y·basis[j,:] for the k×d component-major basis,
// each with [even, odd] split accumulators and several components per sweep
// over y (two in Go, five with AVX2). It returns ‖y‖²; y and coef are
// overwritten. A NaN or ±Inf in x surfaces in the result.
func CenterProject(y, coef, x, mean []float64, basis *Dense) float64 {
	k, d := basis.rows, basis.cols
	if len(x) != d || len(y) != d || len(mean) != d || len(coef) != k {
		panic("mat: CenterProject length mismatch")
	}
	return centerProject(y, coef, x, mean, basis.data)
}

// centerProjectGo is CenterProject's loops over the k×d basis data bd, with
// k = len(coef) and d = len(x) = len(y) = len(mean) (see dotGo).
func centerProjectGo(y, coef, x, mean, bd []float64) float64 {
	y, mean = y[:len(x)], mean[:len(x)]
	for i := range y {
		y[i] = x[i] - mean[i]
	}
	return projectGo(coef, y, bd)
}

// projectGo is the rest of centerProjectGo: ‖y‖² in [even, odd] chains, and
// coef[j] = y·bd[j,:] two components per sweep.
func projectGo(coef, y, bd []float64) float64 {
	k, d := len(coef), len(y)
	var s0, s1 float64
	for i := 1; i < len(y); i += 2 {
		s0 += y[i-1] * y[i-1]
		s1 += y[i] * y[i]
	}
	if d%2 == 1 {
		s0 += y[d-1] * y[d-1]
	}
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
		coef[j] = dotGo(y, bd[j*d:(j+1)*d])
	}
	return s0 + s1
}

// CenterProjectMasked is CenterProject for a row whose false mask bins are
// missing: y = x − mean where the mask is true and +0 where it is false —
// what centering the row with the mean in its gaps gives, for a finite mean —
// then coef and the returned ‖y‖² in CenterProject's order. x is copied into
// xp in the same pass. x may hold anything in the missing bins.
func CenterProjectMasked(y, coef, xp, x, mean []float64, mask []bool, basis *Dense) float64 {
	k, d := basis.rows, basis.cols
	if len(x) != d || len(y) != d || len(xp) != d || len(mean) != d || len(mask) != d || len(coef) != k {
		panic("mat: CenterProjectMasked length mismatch")
	}
	return centerProjectMasked(y, coef, x, mean, basis.data, xp, mask)
}

// centerProjectMaskedGo is CenterProjectMasked's reference: the copy and y,
// then projectGo.
func centerProjectMaskedGo(y, coef, x, mean, bd, xp []float64, mask []bool) float64 {
	copy(xp, x)
	y = y[:len(x)]
	for i, ok := range mask[:len(x)] {
		if y[i] = 0; ok {
			y[i] = x[i] - mean[i]
		}
	}
	return projectGo(coef, y, bd)
}

// GramLower sets g[a·k+b] = Dot(p_a, p_b) for b ≤ a < k, where p_a is row a
// of the k×n row-major panel p (n = len(p)/k), each entry in Dot's
// four-chain order; the AVX2 kernel forms four entries per pass over their
// rows. The upper triangle of the k×k g is left alone. It panics unless k
// divides len(p) and g holds k×k values.
func GramLower(g []float64, k int, p []float64) {
	if k < 0 || len(g) != k*k || k > 0 && len(p)%k != 0 {
		panic("mat: GramLower length mismatch")
	}
	if k > 0 {
		gramLower(g, k, p)
	}
}

// gramLowerGo is GramLower's reference: one dotGo per entry.
func gramLowerGo(g []float64, k int, p []float64) {
	n := len(p) / k
	for a := 0; a < k; a++ {
		for b := 0; b <= a; b++ {
			g[a*k+b] = dotGo(p[a*n:(a+1)*n], p[b*n:(b+1)*n])
		}
	}
}

// AddRowCombination adds Σ_j coef[j]·b[j, off:off+len(dst)] into dst, one
// pass over dst with each element's terms added in j order: bit for bit one
// Lerp(dst, 1, dst, coef[j], row j) per j. It panics if the span leaves b's
// columns or coef is not one value per row of b.
func AddRowCombination(dst, coef []float64, b *Dense, off int) {
	if len(coef) != b.rows || off < 0 || off+len(dst) > b.cols {
		panic("mat: AddRowCombination out of range")
	}
	addRowCombination(dst, coef, b.data[off:], b.cols)
}

// addRowCombinationGo is AddRowCombination's reference over bd, whose row j
// starts at bd[j·stride].
func addRowCombinationGo(dst, coef, bd []float64, stride int) {
	for j, c := range coef {
		row := bd[j*stride:][:len(dst)]
		for i, v := range row {
			dst[i] += c * v
		}
	}
}

// basisUpdateSpan applies rows [lo, hi) of the fused in-place rank-c basis
// update E ← E·M + Yᵀ·W on a d×k basis: per basis row i, the old row is
// copied into scratch, the r panel values Y[m][i] are gathered, and each new
// entry is one Dot against Mᵀ's row plus the ordered rank-c correction.
// scratch needs k+r floats.
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

// syrkRowsGo is SyrkRows' loops over the row-major data of an n-column dst
// and a kk-column a: rows [0, r) of the leading r×r block of dst = A·Aᵀ
// (upper entries plus their mirrors). Each entry is one independent dot;
// the j loop is 2-way unrolled, so two dots per pass share the loaded a-row
// stream (see dotGo).
func syrkRowsGo(dd, ad []float64, n, kk, r int) {
	for i := 0; i < r; i++ {
		ai := ad[i*kk : (i+1)*kk]
		di := dd[i*n : i*n+r]
		j := i
		for ; j+1 < r; j += 2 {
			aj0 := ad[j*kk : (j+1)*kk]
			aj1 := ad[(j+1)*kk : (j+2)*kk]
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
			dd[j*n+i] = v0
			dd[(j+1)*n+i] = v1
		}
		if j < r {
			v := dotGo(ai, ad[j*kk:(j+1)*kk])
			di[j] = v
			dd[j*n+i] = v
		}
	}
}
