package mat

// Cache-blocked matrix kernels. The micro-kernel holds a 2-row × 4-step
// register tile: every pass folds four reduction steps into two destination
// rows, cutting C read-modify-write traffic 4× and reusing each loaded B
// element across two rows, while the destination panel is blocked to ncBlock
// columns so the C segments stay L1-resident. The tile is deliberately
// narrow — the Go compiler spills wider accumulator tiles, which costs more
// than the saved traffic. MulStack runs the tile; the naive triple loop of
// the tests is the reference it is property-tested against.

// ncBlock bounds the destination panel width: 2 C rows + 4 B rows × ncBlock
// columns ≈ 24 KiB, within L1 reach.
const ncBlock = 512

// stackWindow is how many stacked rows MulStack resolves into slices at a
// time: all of them for the engine's k+c, in one window of a multiple of four
// so that every window but the last holds whole four-step passes.
const stackWindow = 16

// MulStack computes dst = A·S over the stacked operand S = [b; y[:r]] — the
// b.rows rows of b followed by the first r rows of y — reading the leading
// b.rows+r columns of a, without materializing S. dst is m×n, a is
// m×(≥ b.rows+r), b and y have n columns. It is the component-major basis
// rebuild B_new = Mᵀ·B + Wᵀ·Y with a = [Mᵀ | Wᵀ]: the 2×4 register tile,
// run along the n-long basis rows. The stacked rows' column panels are
// resolved once per panel and window (one window while k+c ≤ 16), and every
// destination element takes the steps in k order whatever the window.
// It performs no heap allocations.
func MulStack(dst, a, b, y *Dense, r int) {
	kk := b.rows + r
	n := dst.cols
	if r < 0 || r > y.rows || a.rows != dst.rows || a.cols < kk || b.cols != n || y.cols != n {
		panic("mat: MulStack shape mismatch")
	}
	dst.Zero()
	var rows [stackWindow][]float64
	for j0 := 0; j0 < n; j0 += ncBlock {
		j1 := min(j0+ncBlock, n)
		for k0 := 0; k0 < kk; k0 += stackWindow {
			s := rows[:min(stackWindow, kk-k0)]
			for t := range s {
				s[t] = stackRow(b, y, k0+t, j0, j1)
			}
			i := 0
			for ; i+1 < dst.rows; i += 2 {
				mulPanel2x4(dst, a, s, i, k0, j0, j1)
			}
			if i < dst.rows {
				mulPanel1x4(dst, a, s, i, k0, j0, j1)
			}
		}
	}
}

// stackRow returns columns [j0, j1) of row t of the stacked operand [b; y].
func stackRow(b, y *Dense, t, j0, j1 int) []float64 {
	if t < b.rows {
		return b.data[t*b.cols+j0 : t*b.cols+j1]
	}
	t -= b.rows
	return y.data[t*y.cols+j0 : t*y.cols+j1]
}

// mulPanel2x4 accumulates dst[i..i+1, j0:j1] += a[i..i+1, k0:k0+len(s)]·S
// over the resolved stacked-row panels s (steps k0 on), consuming four
// reduction steps per pass: each visit to a C element folds in four S rows,
// so C read-modify-write traffic drops 4× and every S segment load feeds two
// rows.
func mulPanel2x4(dst, a *Dense, s [][]float64, i, k0, j0, j1 int) {
	n, kk := dst.cols, len(s)
	a0 := a.data[i*a.cols+k0 : i*a.cols+k0+kk]
	a1 := a.data[(i+1)*a.cols+k0 : (i+1)*a.cols+k0+kk]
	c0 := dst.data[i*n+j0 : i*n+j1]
	c1 := dst.data[(i+1)*n+j0 : (i+1)*n+j1]
	k := 0
	for ; k+3 < kk; k += 4 {
		panel2x4(c0, c1, a0[k:k+4], a1[k:k+4], s[k], s[k+1], s[k+2], s[k+3])
	}
	for ; k < kk; k++ {
		v0, v1 := a0[k], a1[k]
		if v0 == 0 && v1 == 0 {
			continue
		}
		panel1x1(c0, v0, s[k])
		panel1x1(c1, v1, s[k])
	}
}

// mulPanel1x4 is mulPanel2x4 for a lone destination row.
func mulPanel1x4(dst, a *Dense, s [][]float64, i, k0, j0, j1 int) {
	n, kk := dst.cols, len(s)
	a0 := a.data[i*a.cols+k0 : i*a.cols+k0+kk]
	c0 := dst.data[i*n+j0 : i*n+j1]
	k := 0
	for ; k+3 < kk; k += 4 {
		panel1x4(c0, a0[k:k+4], s[k], s[k+1], s[k+2], s[k+3])
	}
	for ; k < kk; k++ {
		if v := a0[k]; v != 0 {
			panel1x1(c0, v, s[k])
		}
	}
}

// panel2x4Go is mulPanel2x4's four-step loop over the len(bk0) columns:
// c0[j] += v0[0]·bk0[j] + … + v0[3]·bk3[j], and likewise c1 with v1. Every
// slice holds at least len(bk0) entries and v0, v1 at least four (see dotGo).
func panel2x4Go(c0, c1, v0, v1, bk0, bk1, bk2, bk3 []float64) {
	w := len(bk0)
	c0, c1, bk1, bk2, bk3 = c0[:w], c1[:w], bk1[:w], bk2[:w], bk3[:w]
	v00, v01, v02, v03 := v0[0], v0[1], v0[2], v0[3]
	v10, v11, v12, v13 := v1[0], v1[1], v1[2], v1[3]
	for j, b0 := range bk0 {
		b1, b2, b3 := bk1[j], bk2[j], bk3[j]
		c0[j] += v00*b0 + v01*b1 + v02*b2 + v03*b3
		c1[j] += v10*b0 + v11*b1 + v12*b2 + v13*b3
	}
}

// panel1x4Go is panel2x4Go for mulPanel1x4's lone row.
func panel1x4Go(c0, v, bk0, bk1, bk2, bk3 []float64) {
	w := len(bk0)
	c0, bk1, bk2, bk3 = c0[:w], bk1[:w], bk2[:w], bk3[:w]
	v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
	for j, b0 := range bk0 {
		c0[j] += v0*b0 + v1*bk1[j] + v2*bk2[j] + v3*bk3[j]
	}
}

// panel1x1Go is one destination row's single step, for the last kk%4 steps
// of both panels: c0[j] += v·bk[j] over the len(bk) columns, as Axpy does.
func panel1x1Go(c0 []float64, v float64, bk []float64) {
	c0 = c0[:len(bk)]
	for j, bv := range bk {
		c0[j] += v * bv
	}
}

// eigToMulAdd is E in BlockSize's cost model: the cost of one n³ unit of the
// (k+c)-sized eigensolve in d-long kernel multiply-adds. It is a constant,
// not a measurement, because the chunk width reaches the engine's output (the
// rank-c fold rounds differently at each width) and so must be the same on
// every machine and in every process of a run. 4 is the least-squares fit
// (4.1) of the model below to the two-lane sweep (`make bench-width`, DESIGN
// "Chunk-width cost model"). Wire lanes are sized in bytes, so the width
// changes only the engine's fold.
const eigToMulAdd = 4

// BlockSize returns the cost-model-optimal rank-c chunk width for a d×k
// engine, in [2, max]. Per absorbed row the block path costs
//
//	d·(c+1)/2         Y·Yᵀ inner products (SyrkRows, one triangle)
//	d·k²/c + d·k      basis rebuild [Mᵀ | Wᵀ]·[B; Y] (MulStack), over c
//	E·(k+c)³/c        the (k+c)-sized eigensolve, amortized over c
//
// in multiply-adds, with E the eigensolver/multiply-add cost ratio
// (eigToMulAdd). Both d-long kernels run on the component-major rows in SIMD
// and retire multiply-adds at about the same rate: a free fit of their two
// weights to the sweep put SyrkRows at 0.51–0.62 of the rebuild's, against
// the ½ its triangle counts, so each term is its plain count. The d·(k+2)
// center/project term is c-independent and excluded. Small c wastes the
// amortization; large c pays linearly in the Syrk corner and cubically in
// the eigensolve, so for large d the pick settles near k·√2 (6 at d = 400
// and 1000, 7 from d = 2000, 3 at d = 16 for k = 5).
func BlockSize(d, k, max int) int {
	if max < 2 {
		return max
	}
	best := 2
	bestCost := blockCost(d, k, 2)
	for c := 3; c <= max; c++ {
		if cost := blockCost(d, k, c); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

func blockCost(d, k, c int) float64 {
	fd, fk, fc := float64(d), float64(k), float64(c)
	kc := fk + fc
	return fd*(fc+1)/2 + fd*fk*fk/fc + fd*fk + eigToMulAdd*kc*kc*kc/fc
}
