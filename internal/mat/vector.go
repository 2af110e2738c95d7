// Package mat provides the dense linear-algebra kernels used throughout
// streampca: vectors, row-major dense matrices, and the small set of
// products (GEMM, Gram, rank-one updates) the incremental PCA engine needs.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement. Every routine validates dimensions and panics on
// mismatch; shape errors are programming errors, not runtime conditions.
package mat

import "math"

// Dot returns the inner product of x and y.
// It panics if the vectors have different lengths.
// The sum is accumulated in four independent chains (reassociated), so the
// result can differ from strict left-to-right summation by O(ε·‖x‖·‖y‖).
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	return dot(x, y)
}

// dotGo is Dot's loop for len(y) == len(x): the reference the amd64
// assembly matches bit for bit, and the only path on other architectures.
func dotGo(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// CopyFinite copies src into dst and reports whether src holds no NaN or
// ±Inf, reading src once and without a branch per element: x·0 is ±0 for a
// finite x and NaN otherwise. It panics if the lengths differ.
func CopyFinite(dst, src []float64) bool {
	if len(dst) != len(src) {
		panic("mat: CopyFinite length mismatch")
	}
	return copyFinite(dst, src)
}

// copyFiniteGo is CopyFinite's reference: a copy, then allFiniteGo.
func copyFiniteGo(dst, src []float64) bool {
	copy(dst, src)
	return allFiniteGo(dst)
}

// allFiniteGo is copyFiniteGo's check: the x·0 values summed in four chains.
func allFiniteGo(x []float64) bool {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 += x[i] * 0
		s1 += x[i+1] * 0
		s2 += x[i+2] * 0
		s3 += x[i+3] * 0
	}
	for ; i < len(x); i++ {
		s0 += x[i] * 0
	}
	return (s0+s1)+(s2+s3) == 0
}

// NaNMask sets mask[i] = !IsNaN(x[i]) (true = observed; ±Inf counts as
// observed) and returns the number of NaN bins, in one pass. It panics if the
// lengths differ.
func NaNMask(mask []bool, x []float64) int {
	if len(mask) != len(x) {
		panic("mat: NaNMask length mismatch")
	}
	return nanMask(mask, x)
}

// nanMaskGo is NaNMask's reference (see dotGo).
func nanMaskGo(mask []bool, x []float64) int {
	mask = mask[:len(x)]
	n := 0
	for i, v := range x {
		mask[i] = v == v
		if v != v {
			n++
		}
	}
	return n
}

// Norm2 returns the Euclidean norm of x, guarding against overflow and
// underflow by scaling with the largest magnitude entry.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute entry of x (0 for an empty vector).
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y += alpha*x in place.
// It panics if the vectors have different lengths.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	y = y[:len(x)]
	i := 0
	for ; i+3 < len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every entry of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddTo stores x+y into dst and returns dst. dst may alias x or y.
func AddTo(dst, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("mat: AddTo length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
	return dst
}

// SubTo stores x−y into dst and returns dst. dst may alias x or y.
func SubTo(dst, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("mat: SubTo length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
	return dst
}

// Lerp stores a*x + b*y into dst and returns dst. dst may alias x or y.
// It is the weighted-combination kernel used by the recursive mean update
// µ = γ·µprev + (1−γ)·x.
func Lerp(dst []float64, a float64, x []float64, b float64, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("mat: Lerp length mismatch")
	}
	lerp(dst, a, x, b, y)
	return dst
}

// lerpGo is Lerp's loop for equal lengths (see dotGo).
func lerpGo(dst []float64, a float64, x []float64, b float64, y []float64) {
	for i := range dst {
		dst[i] = a*x[i] + b*y[i]
	}
}

// CopyVec copies src into a freshly allocated vector.
func CopyVec(src []float64) []float64 {
	dst := make([]float64, len(src))
	copy(dst, src)
	return dst
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Normalize scales x to unit Euclidean norm in place and returns the
// original norm. A zero vector is left untouched and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	Scale(1/n, x)
	return n
}

// EqualApproxVec reports whether x and y have the same length and agree
// entrywise within tol.
func EqualApproxVec(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}
