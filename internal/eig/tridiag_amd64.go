package eig

// The AVX2 kernels of tridiagLanes, in tridiag_amd64.s. Rows of m and z are
// stride apart (a multiple of 4), and each kernel runs its lanes over the
// first n columns rounded up to 4, so a row's last block may write columns
// past n-1 that no caller reads.

// vecMatLanes sets dst[j] = Σ_{k<n} x[k]·m[k·stride+j], each column's sum in
// k order from zero.
//
//go:noescape
func vecMatLanes(dst, x, m []float64, n, stride int)

// rank2Lanes sets m[j][k] −= u[j]·t[k] + t[j]·u[k] for rows j < n.
//
//go:noescape
func rank2Lanes(m, u, t []float64, n, stride int)

// rank1Lanes sets m[k][j] −= t[j]·w[k] for rows k < n.
//
//go:noescape
func rank1Lanes(m, w, t []float64, n, stride int)

// rotateLanes applies each rotation of rots in order to rows p and q of z:
// (x, y) ← (c·x − s·y, s·x + c·y) across the whole row.
//
//go:noescape
func rotateLanes(z []float64, stride int, rots []givens)

// transposeLanes sets dst[j][k] = src[k][j] for j, k < n rounded up to 4.
//
//go:noescape
func transposeLanes(dst, src []float64, n, stride int)
