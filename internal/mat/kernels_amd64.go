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

func copyFinite(dst, src []float64) bool {
	if useAVX2 {
		return copyFiniteAVX2(dst, src)
	}
	return copyFiniteGo(dst, src)
}

func nanMask(mask []bool, x []float64) int {
	if useAVX2 {
		return nanMaskAVX2(mask, x)
	}
	return nanMaskGo(mask, x)
}

func centerProjectMasked(y, coef, x, mean, bd, xp []float64, mask []bool) float64 {
	if useAVX2 {
		return centerProjectMaskedAVX2(y, coef, x, mean, bd, xp, mask)
	}
	return centerProjectMaskedGo(y, coef, x, mean, bd, xp, mask)
}

func gramLower(g []float64, k int, p []float64) {
	if useAVX2 && len(p) > 0 {
		gramLowerAVX2(g, k, p)
	} else {
		gramLowerGo(g, k, p)
	}
}

// gramLowerAVX2 runs gramLowerGo's entries e = a·k+b four at a time through
// dot4AVX2, in order; the last group's idle slots read row 0 twice.
func gramLowerAVX2(g []float64, k int, p []float64) {
	n, m := len(p)/k, 0
	var out [4]float64
	var at, off [4]int // entry, and the offset of its row b; row a's is at/k·n
	for e := 0; e < k*k; e++ {
		if e%k > e/k {
			continue
		}
		at[m], off[m] = e, e%k*n
		if m++; m == 4 || e == k*k-1 {
			a := func(i int) *float64 { return &p[at[i]/k*n] }
			dot4AVX2(&out, a(0), &p[off[0]], a(1), &p[off[1]], a(2), &p[off[2]], a(3), &p[off[3]], n)
			for i := range m {
				g[at[i]] = out[i]
			}
			at, off, m = [4]int{}, [4]int{}, 0
		}
	}
}

// addRowCombination takes the rows four at a time, then one at a time
// through panel1x1AVX2 (c0 += v·bk).
func addRowCombination(dst, coef, bd []float64, stride int) {
	if !useAVX2 {
		addRowCombinationGo(dst, coef, bd, stride)
		return
	}
	j := 0
	for ; j+4 <= len(coef); j += 4 {
		addRows4AVX2(dst, coef[j:j+4], bd[j*stride:], stride)
	}
	for ; j < len(coef); j++ {
		panel1x1AVX2(dst, coef[j], bd[j*stride:][:len(dst)])
	}
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
func copyFiniteAVX2(dst, src []float64) bool

//go:noescape
func nanMaskAVX2(mask []bool, x []float64) int

//go:noescape
func centerProjectMaskedAVX2(y, coef, x, mean, bd, xp []float64, mask []bool) float64

//go:noescape
func dot4AVX2(out *[4]float64, x0, y0, x1, y1, x2, y2, x3, y3 *float64, n int)

//go:noescape
func addRows4AVX2(dst, coef, bd []float64, stride int)
