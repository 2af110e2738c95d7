//go:build !amd64

package mat

// Off amd64 the kernels are their Go references.

// AVX2 is false: off amd64 there are no AVX2 kernels.
func AVX2() bool { return false }

func dot(x, y []float64) float64 { return dotGo(x, y) }

func lerp(dst []float64, a float64, x []float64, b float64, y []float64) { lerpGo(dst, a, x, b, y) }

func centerProject(y, coef, x, mean, bd []float64) float64 {
	return centerProjectGo(y, coef, x, mean, bd)
}

func syrkRows(dd, ad []float64, n, kk, r int) { syrkRowsGo(dd, ad, n, kk, r) }

func panel2x4(c0, c1, v0, v1, bk0, bk1, bk2, bk3 []float64) {
	panel2x4Go(c0, c1, v0, v1, bk0, bk1, bk2, bk3)
}

func panel1x4(c0, v, bk0, bk1, bk2, bk3 []float64) { panel1x4Go(c0, v, bk0, bk1, bk2, bk3) }

func panel1x1(c0 []float64, v float64, bk []float64) { panel1x1Go(c0, v, bk) }

func copyFinite(dst, src []float64) bool { return copyFiniteGo(dst, src) }

func nanMask(mask []bool, x []float64) int { return nanMaskGo(mask, x) }

func centerProjectMasked(y, coef, x, mean, bd, xp []float64, mask []bool) float64 {
	return centerProjectMaskedGo(y, coef, x, mean, bd, xp, mask)
}

func gramLower(g []float64, k int, p []float64) { gramLowerGo(g, k, p) }

func addRowCombination(dst, coef, bd []float64, stride int) {
	addRowCombinationGo(dst, coef, bd, stride)
}
