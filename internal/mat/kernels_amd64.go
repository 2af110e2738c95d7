package mat

// SSE2 versions of the d-long loops, in kernels_amd64.s. Each performs the
// IEEE-754 operations of its Go reference (the function of the same name with
// a Go suffix) in the same order per output, so results are bit-identical on
// every amd64 host; the exported callers check lengths before calling.

//go:noescape
func dot(x, y []float64) float64

//go:noescape
func lerp(dst []float64, a float64, x []float64, b float64, y []float64)

//go:noescape
func centerProject(y, coef, x, mean, bd []float64) float64

//go:noescape
func syrkRows(dd, ad []float64, n, kk, r int)

//go:noescape
func panel2x4(c0, c1, v0, v1, bk0, bk1, bk2, bk3 []float64)

//go:noescape
func panel2x1(c0, c1 []float64, v0, v1 float64, bk []float64)

//go:noescape
func panel1x4(c0, v, bk0, bk1, bk2, bk3 []float64)
