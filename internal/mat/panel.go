package mat

// Panel kernels on a leading-row prefix of their inputs, so a fixed-capacity
// workspace matrix can serve every chunk size without re-slicing (which would
// allocate a header on the hot path): SyrkRows forms the c×c inner products of
// a chunk's centered rows for the rank-c rebuild; AddMulTARows, the d×k panel
// accumulation E += Yᵀ·W of the former row-major basis, is kept for the repo
// benchmark's isolated timings. Property-tested against MulBT/MulTA in
// panel_test.go.

// SyrkRows computes the leading r×r block of dst = A·Aᵀ from the first r rows
// of a, exploiting symmetry (each off-diagonal dot is computed once and
// mirrored). dst must be at least r×r; entries outside the leading block are
// left untouched. It performs no heap allocations.
func SyrkRows(dst, a *Dense, r int) {
	if r < 0 || r > a.rows {
		panic("mat: SyrkRows row count out of range")
	}
	if dst.rows < r || dst.cols < r {
		panic("mat: SyrkRows destination too small")
	}
	syrkRows(dst.data, a.data, dst.cols, a.cols, r)
}

// AddMulTARows accumulates dst += Aᵀ·B using only the first r rows of a and b:
// a is (≥r)×m, b is (≥r)×n, dst is m×n. The reduction over rows is 4-way
// unrolled, keeping four streaming B rows live per pass over the destination.
// No engine path calls it; the repo benchmark times it in isolation
// (mat.addmulta_rows_us.*). It performs no heap allocations.
func AddMulTARows(dst, a, b *Dense, r int) {
	if r < 0 || r > a.rows || r > b.rows {
		panic("mat: AddMulTARows row count out of range")
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic("mat: AddMulTARows shape mismatch")
	}
	addMulTARowsSpan(dst, a, b, r, 0, a.cols)
}
