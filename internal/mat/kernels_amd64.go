package mat

// On amd64 each d-long loop has an AVX2 version in kernels_amd64.s, chosen
// once at init when the CPU and OS support it; without AVX2 the Go reference
// (the function of the same name with a Go suffix) runs. Each AVX2 kernel
// performs its reference's IEEE-754 operations in the same order per output,
// with no FMA, so every amd64 host computes the same bits either way. The
// exported callers check lengths before calling.

// useAVX2 selects the AVX2 kernels. It is set at init and read only after;
// tests force it off to run the Go path.
var useAVX2 = hasAVX2()

// AVX2 reports init's kernel choice, so that other packages' AVX2 code
// follows the one CPUID decision.
func AVX2() bool { return useAVX2 }

// hasAVX2 reports whether CPUID leaf 7 lists AVX2 and the OS saves the YMM
// registers: OSXSAVE set, and XCR0's SSE and AVX state bits both on.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx1&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func dot(x, y []float64) float64 {
	if useAVX2 {
		return dotAVX2(x, y)
	}
	return dotGo(x, y)
}

func lerp(dst []float64, a float64, x []float64, b float64, y []float64) {
	if useAVX2 {
		lerpAVX2(dst, a, x, b, y)
	} else {
		lerpGo(dst, a, x, b, y)
	}
}

func centerProject(y, coef, x, mean, bd []float64) float64 {
	if useAVX2 {
		return centerProjectAVX2(y, coef, x, mean, bd)
	}
	return centerProjectGo(y, coef, x, mean, bd)
}

func syrkRows(dd, ad []float64, n, kk, r int) {
	if useAVX2 {
		syrkRowsAVX2(dd, ad, n, kk, r)
	} else {
		syrkRowsGo(dd, ad, n, kk, r)
	}
}

func panel2x4(c0, c1, v0, v1, bk0, bk1, bk2, bk3 []float64) {
	if useAVX2 {
		panel2x4AVX2(c0, c1, v0, v1, bk0, bk1, bk2, bk3)
	} else {
		panel2x4Go(c0, c1, v0, v1, bk0, bk1, bk2, bk3)
	}
}

func panel1x4(c0, v, bk0, bk1, bk2, bk3 []float64) {
	if useAVX2 {
		panel1x4AVX2(c0, v, bk0, bk1, bk2, bk3)
	} else {
		panel1x4Go(c0, v, bk0, bk1, bk2, bk3)
	}
}

func panel1x1(c0 []float64, v float64, bk []float64) {
	if useAVX2 {
		panel1x1AVX2(c0, v, bk)
	} else {
		panel1x1Go(c0, v, bk)
	}
}

func allFinite(x []float64) bool {
	if useAVX2 {
		return allFiniteAVX2(x)
	}
	return allFiniteGo(x)
}

func copyFinite(dst, src []float64) bool {
	if useAVX2 {
		return copyFiniteAVX2(dst, src)
	}
	return copyFiniteGo(dst, src)
}

//go:noescape
func dotAVX2(x, y []float64) float64

//go:noescape
func lerpAVX2(dst []float64, a float64, x []float64, b float64, y []float64)

//go:noescape
func centerProjectAVX2(y, coef, x, mean, bd []float64) float64

//go:noescape
func syrkRowsAVX2(dd, ad []float64, n, kk, r int)

//go:noescape
func panel2x4AVX2(c0, c1, v0, v1, bk0, bk1, bk2, bk3 []float64)

//go:noescape
func panel1x4AVX2(c0, v, bk0, bk1, bk2, bk3 []float64)

//go:noescape
func panel1x1AVX2(c0 []float64, v float64, bk []float64)

//go:noescape
func allFiniteAVX2(x []float64) bool

//go:noescape
func copyFiniteAVX2(dst, src []float64) bool
