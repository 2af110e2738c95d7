package core

import (
	"math"

	"streampca/internal/eig"
	"streampca/internal/mat"
)

// blockMax caps the chunk width of ObserveBlock. Per observation the block
// path costs ≈ d·(2k + c/2 + k²/c) flops against the sequential path's
// d·(2k + k²): the O(d·k²) basis rebuild amortizes over the chunk while the
// new O(d·c²) Y·Yᵀ term and the (k+c)³ eigensolve grow with it, so an
// interior optimum exists near c ≈ √2·k. The width an engine actually uses,
// en.blockC ≤ blockMax, comes from the cost model (mat.BlockSize), a pure
// function of (d, k). Larger chunks also widen the window in
// which projections use a stale (chunk-start) basis, so the cap stays small
// and caller batches of any size are processed as a sequence of ≤ en.blockC
// chunks.
const blockMax = 16

// ObserveBlock absorbs a batch of complete observation vectors: the all-nil
// case of ObserveBlockMasked, rejecting any row with a non-finite entry.
func (en *Engine) ObserveBlock(xs [][]float64, out []Update) ([]Update, error) {
	return en.ObserveBlockMasked(xs, nil, out)
}

// ObserveBlockMasked absorbs a batch of observation vectors, behaving like
// one Observe (masks[i] == nil, or masks == nil for the whole batch) or
// ObserveMasked (masks[i] marks the observed bins of xs[i]) call per row —
// identical per-row weights, M-scale and running-sum recursions, in order —
// except that the eigensystem rebuilds are folded: up to en.blockC
// consecutive rank-one updates collapse into a single structured rank-c
// rebuild (one (k+c)×(k+c) eigenproblem and one pass over the basis per
// chunk instead of c). Within a chunk the projections Eᵀy, and the gap
// patches fitted from them (patchProject), use the chunk-start basis, which
// is the approximation that buys the speedup; a batch of one reduces exactly
// to the scalar entry points. Gappy rows never narrow a chunk, and neither xs
// nor masks is written.
//
// Updates are appended to out (pass a reused buffer with spare capacity for a
// zero-allocation steady state) and one Update is returned per absorbed row.
// Rows that fail validation — wrong length, non-finite entries outside a
// masked bin, a wrong-length or (nearly) all-false mask — or whose warm-up
// step fails are skipped, mirroring how the pipeline drops malformed tuples;
// the first such error is returned after the rest of the batch has been
// processed.
func (en *Engine) ObserveBlockMasked(xs [][]float64, masks [][]bool, out []Update) ([]Update, error) {
	if masks != nil && len(masks) != len(xs) {
		return out, errMaskLength
	}
	var firstErr error
	i := 0
	for i < len(xs) {
		// Chunk on the cheap length check only: observeChunk's center/project
		// pass already visits every entry, so non-finite rows are detected
		// there from the residual norm instead of a separate validation scan.
		var err error
		c := 0
		for en.ready && c < en.blockC && i+c < len(xs) && len(xs[i+c]) == en.cfg.Dim {
			c++
		}
		if c > 0 {
			var cm [][]bool
			if masks != nil {
				cm = masks[i : i+c]
			}
			out, err = en.observeChunk(xs[i:i+c], cm, out)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			i += c
			continue
		}
		// What is left is one row that no chunk takes: during warm-up the
		// scalar entry points buffer it (initialization can complete
		// mid-batch, so readiness is re-checked per row), and a wrong-length
		// row only needs their error.
		var u Update
		if masks != nil && masks[i] != nil {
			u, err = en.ObserveMasked(xs[i], masks[i])
		} else {
			u, err = en.Observe(xs[i])
		}
		if err == nil {
			out = append(out, u)
		} else if firstErr == nil {
			firstErr = err
		}
		i++
	}
	return out, firstErr
}

// observeChunk folds 1 ≤ len(xs) ≤ en.blockC length-checked observations
// (masks nil, or one possibly-nil mask per row) into the engine with one
// deferred rank-c eigensystem rebuild, decaying the running sums by
// Config.Alpha per row. It is the engine's one
// implementation of the robust update of §II (eqs. 9–14); Observe and its
// kin run it on a chunk of one. Every scalar recursion — weights, M-scale,
// rescue, mean, running sums — runs exactly per row; only the covariance
// update is deferred. Sequentially, each firing row m applies
// C ← γ2_m·C + yCoef_m·y_m·y_mᵀ, so the chunk composes to
//
//	C ← g·C + Σ_m b_m·y_m·y_mᵀ,  g = Π γ2_m,  b_m = yCoef_m·Π_{j>m} γ2_j
//
// over the firing rows — exact up to the per-step rank-k truncations the
// sequential path interleaves. The fold weights are maintained incrementally:
// each firing row scales g and every already-folded b by its γ2.
//
// Rows with non-finite entries surface as a non-finite residual norm in the
// center/project pass and are skipped before any state is touched, as are
// rows whose mask patchProject rejects; the first such error is returned
// after the chunk completes.
func (en *Engine) observeChunk(xs [][]float64, masks [][]bool, out []Update) ([]Update, error) {
	st := &en.state
	cfg := &en.cfg
	ws := en.ws
	p := cfg.Components
	k := en.k
	d := cfg.Dim

	var firstErr error
	g := 1.0
	nf := 0         // firing rows folded so far
	ny2First := 0.0 // ‖y‖² of the first firing row, for a lone-firing chunk
	bv := ws.bvals
	yd := ws.yMat.Data()
	cd := ws.coefs.Data()
	mean := st.Mean

	for r, x := range xs {
		// Center/project pass (eq. 4's residual), writing into the next
		// firing slot; non-firing rows leave the slot to be reused.
		y := yd[nf*d : (nf+1)*d]
		coef := cd[nf*k : (nf+1)*k]
		var ny2 float64
		var err error
		row, patched := x, 0 // row is what the recursions absorb: x or its patched copy
		if masks == nil || masks[r] == nil {
			if ny2 = mat.CenterProject(y, coef, x, mean, en.basis); math.IsNaN(ny2) || math.IsInf(ny2, 0) {
				err = errNonFinite // a NaN or ±Inf anywhere in x propagates into ‖y‖²
			}
		} else if ny2, patched, err = en.patchProject(nf, x, masks[r]); patched > 0 {
			row = ws.xPatch
		}
		if err != nil {
			// The slot is left to be overwritten; no recursion has run yet.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r2 := ny2
		for j := 0; j < p; j++ {
			r2 -= coef[j] * coef[j]
		}
		if r2 < 0 {
			r2 = 0
		}

		sigma2 := st.Sigma2
		if sigma2 < en.minSigma2 {
			sigma2 = en.minSigma2
		}
		t := r2 / sigma2
		w := cfg.Rho.W(t)
		wstar := cfg.Rho.WStar(t)

		uNew := cfg.Alpha*st.SumU + 1
		gamma3 := cfg.Alpha * st.SumU / uNew
		sigma2New := gamma3*st.Sigma2 + (1-gamma3)*wstar*r2/cfg.Delta
		if sigma2New < en.minSigma2 {
			sigma2New = en.minSigma2
		}
		if w == 0 && cfg.RescueStreak > 0 {
			en.recordRejected(r2)
			en.zeroStreak++
			if en.zeroStreak >= cfg.RescueStreak {
				if med := en.rejectedMedian(); med > sigma2New {
					sigma2New = med
					en.rescues++
				}
				en.zeroStreak = 0
			}
		} else if w > 0 {
			en.zeroStreak = 0
		}

		vNew := cfg.Alpha*st.SumV + w
		if vNew > 0 {
			gamma1 := cfg.Alpha * st.SumV / vNew
			mat.Lerp(st.Mean, gamma1, st.Mean, 1-gamma1, row)
		}

		qNew := cfg.Alpha*st.SumQ + w*r2
		if qNew > 0 && w > 0 {
			gamma2 := cfg.Alpha * st.SumQ / qNew
			g *= gamma2
			for m := 0; m < nf; m++ {
				bv[m] *= gamma2
			}
			bv[nf] = sigma2New * w / qNew
			if nf == 0 {
				ny2First = ny2
			}
			nf++
		}

		st.Sigma2 = sigma2New
		st.SumU = uNew
		st.SumV = vNew
		if qNew > 0 {
			st.SumQ = qNew
		}
		st.Count++
		en.sinceSync++
		en.updatesSince++

		out = append(out, Update{
			Seq:       st.Count,
			Weight:    w,
			Residual2: r2,
			T:         t,
			Sigma2:    sigma2New,
			Outlier:   t > cfg.OutlierT,
			Patched:   patched,
		})
	}

	if nf > 0 {
		if nf == 1 {
			// A single firing row is exactly the rank-one system; its y and
			// projections already sit in slot 0, where the cheaper
			// (k+1)-sized fast path reads them.
			en.rebuildEigensystem(g, bv[0], ny2First)
		} else {
			en.rebuildEigensystemBlock(g, nf) // on failure the decayed sums still advanced
		}
	}
	if cfg.ReorthEvery > 0 && en.updatesSince >= cfg.ReorthEvery {
		en.reorthonormalize()
		en.updatesSince = 0
	}
	return out, firstErr
}

// rebuildEigensystemBlock installs the rank-c eigensystem update: conceptually
// it decomposes the d×(k+c) matrix A = [E·diag(√(g·λⱼ)) | Y·diag(√b_m)] and
// keeps the top-k left singular system. Like the rank-one fast path it never
// materializes A: with EᵀE = I the (k+c)×(k+c) Gram matrix is
//
//	AᵀA = ⎡ diag(g·λⱼ)          diag(√(g·λ))·Cᵀ·D_b ⎤
//	      ⎣ D_b·C·diag(√(g·λ))   D_b·(Y·Yᵀ)·D_b     ⎦
//
// with C the c×k projections Eᵀy_m already paid for by the center/project
// pass and D_b = diag(√b_m); only the c×c inner products Y·Yᵀ cost fresh
// O(d·c²/2) work (SyrkRows). The eigen decomposition V then yields the new
// basis in one product over the stacked operand [B; Y] (installRebuild), so
// the d-proportional work per chunk is that product and the Syrk, both on
// d-long rows. ws.yMat, ws.coefs and ws.bvals must hold the c rows (a chunk's
// firing rows, or a merge's); false reports a failed eigensolve, which keeps
// the previous eigensystem.
func (en *Engine) rebuildEigensystemBlock(g float64, c int) bool {
	st := &en.state
	k := en.k
	ws := en.ws
	scale := ws.scale
	for j := 0; j < k; j++ {
		scale[j] = math.Sqrt(g * max(st.Values[j], 0))
	}
	bs := scale[k : k+c]
	for m := range bs {
		bs[m] = math.Sqrt(max(ws.bvals[m], 0))
	}
	mat.SyrkRows(ws.syrk, ws.yMat, c)

	// Both solvers below (TridiagSym, and its JacobiSym fallback) read only
	// the upper triangle, so the Gram assembly writes only that: the lower
	// triangle and the structurally-zero off-diagonals of the diag(g·λ) block
	// were zeroed once at workspace allocation and never touched since, and
	// every upper entry that can be nonzero is overwritten here per call.
	kc := k + c
	gram := ws.bgram[c]
	gd := gram.Data()
	for j := 0; j < k; j++ {
		gd[j*kc+j] = scale[j] * scale[j]
	}
	cd := ws.coefs.Data()
	sy := ws.syrk.Data()
	sc := ws.syrk.Cols()
	for m := 0; m < c; m++ {
		sb := bs[m]
		row := cd[m*k : m*k+k]
		for j := 0; j < k; j++ {
			gd[j*kc+(k+m)] = scale[j] * sb * row[j]
		}
		srow := sy[m*sc : m*sc+c]
		for m2 := m; m2 < c; m2++ {
			gd[(k+m)*kc+(k+m2)] = sb * bs[m2] * srow[m2]
		}
	}
	// The (k+c)-sized Gram has a c×c dense corner, not an arrowhead, so it goes
	// to the tridiagonal solver, ahead of cyclic Jacobi at every size (DESIGN,
	// "Eigensolver crossover"); only the rank-one row update suits ArrowSym.
	lam, v, ok := eig.TridiagSym(gram, ws.bsym[c])
	if !ok {
		return false
	}
	en.installRebuild(lam, v, c)
	return true
}
