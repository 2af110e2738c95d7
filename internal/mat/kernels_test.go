package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// kernelSpecials are the edge values the kernels must carry like their Go
// references: both NaN encodings x86 produces (math.NaN and the default NaN
// of Inf−Inf), infinities, both zeros, subnormals and magnitudes whose
// products overflow.
var kernelSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000000),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -2.5e-310, 1e300, -1e300, 1, -1,
}

// kernelInput hands out the values the kernel cases are filled with.
type kernelInput func() float64

// specialInput draws normals, with every fourth value on average taken from
// kernelSpecials.
func specialInput(rng *rand.Rand) kernelInput {
	return func() float64 {
		if rng.IntN(4) == 0 {
			return kernelSpecials[rng.IntN(len(kernelSpecials))]
		}
		return rng.NormFloat64()
	}
}

// vec returns n values from next, off elements into a fresh backing array, so
// an odd off makes every 16-byte load of the kernels unaligned.
func (next kernelInput) vec(n, off int) []float64 {
	v := make([]float64, off+n)
	for i := range v {
		v[i] = next()
	}
	return v[off:]
}

// sameBits fails unless got and want agree bit for bit. The one exception is
// a NaN's payload: when both operands of a multiply or add are NaN, x86
// returns the first one's, and the Go compiler orders commutative operands
// per instruction as register allocation falls (dotGo and panel2x4Go mix both
// orders within one loop), so a NaN output only has to be NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#016x), Go reference %v (%#016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameScalar(t *testing.T, what string, got, want float64) {
	t.Helper()
	sameBits(t, what, []float64{got}, []float64{want})
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// checkKernels runs every kernel entry and its Go reference on n-long inputs
// at element offset off and fails on the first output bit that differs.
func checkKernels(t *testing.T, next kernelInput, n, off int) {
	t.Helper()
	x, y := next.vec(n, off), next.vec(n, off)
	sameScalar(t, "dot", dot(x, y), dotGo(x, y))

	a, b := next(), next()
	got, want := next.vec(n, off), make([]float64, n)
	lerp(got, a, x, b, y)
	lerpGo(want, a, x, b, y)
	sameBits(t, "lerp", got, want)
	got, want = clone(x), clone(x)
	lerp(got, a, got, b, y)
	lerpGo(want, a, want, b, y)
	sameBits(t, "lerp dst=x", got, want)
	got, want = clone(y), clone(y)
	lerp(got, a, x, b, got)
	lerpGo(want, a, x, b, want)
	sameBits(t, "lerp dst=y", got, want)

	mean := next.vec(n, off)
	for k := 0; k <= 9; k++ {
		bd := next.vec(k*n, off)
		yg, cg := next.vec(n, off), next.vec(k, off)
		yw, cw := clone(yg), clone(cg)
		sameScalar(t, "centerProject", centerProject(yg, cg, x, mean, bd),
			centerProjectGo(yw, cw, x, mean, bd))
		sameBits(t, "centerProject y", yg, yw)
		sameBits(t, "centerProject coef", cg, cw)
	}

	for r := 0; r <= 9; r++ {
		ad := next.vec(r*n, off)
		cols := r + 2
		dg := next.vec(r*cols, off)
		dw := clone(dg)
		syrkRows(dg, ad, cols, n, r)
		syrkRowsGo(dw, ad, cols, n, r)
		sameBits(t, "syrkRows", dg, dw)
	}

	v0, v1 := next.vec(4, off), next.vec(4, off)
	bk := [4][]float64{next.vec(n, off), next.vec(n, off), next.vec(n, off), next.vec(n, off)}
	c0g, c1g := next.vec(n, off), next.vec(n, off)
	c0w, c1w := clone(c0g), clone(c1g)
	panel2x4(c0g, c1g, v0, v1, bk[0], bk[1], bk[2], bk[3])
	panel2x4Go(c0w, c1w, v0, v1, bk[0], bk[1], bk[2], bk[3])
	sameBits(t, "panel2x4 c0", c0g, c0w)
	sameBits(t, "panel2x4 c1", c1g, c1w)
	panel1x4(c0g, v0, bk[0], bk[1], bk[2], bk[3])
	panel1x4Go(c0w, v0, bk[0], bk[1], bk[2], bk[3])
	sameBits(t, "panel1x4", c0g, c0w)
	panel1x1(c0g, v1[0], bk[1])
	panel1x1Go(c0w, v1[0], bk[1])
	sameBits(t, "panel1x1", c0g, c0w)

	checkMaskedKernels(t, next, n, off)

	got, want = next.vec(n, off), make([]float64, n)
	if f, fw := copyFinite(got, y), copyFiniteGo(want, y); f != fw {
		t.Fatalf("copyFinite = %v, Go reference %v", f, fw)
	}
	sameBits(t, "copyFinite", got, want)
	sameBits(t, "copyFinite src", got, y)
}

// nanAt returns a NaN whose sign and payload vary with i, quiet or
// signalling.
func nanAt(i int) float64 {
	return math.Float64frombits(0x7ff0000000000001 | uint64(i%2)<<63 | uint64(i%5)<<51 | uint64(i)<<8)
}

// checkMaskedKernels is checkKernels for the gap kernels: the mask comes
// from the low bit of drawn values, x holds NaNs of several payloads where
// the mask is false, and a mask starts off bytes into its backing array.
func checkMaskedKernels(t *testing.T, next kernelInput, n, off int) {
	t.Helper()
	mask := make([]bool, off+n)[off:]
	x := next.vec(n, off)
	for i := range mask {
		if mask[i] = math.Float64bits(next())&1 == 0; !mask[i] {
			x[i] = nanAt(i)
		}
	}
	mg, mw := make([]bool, off+n)[off:], make([]bool, n)
	if got, want := nanMask(mg, x), nanMaskGo(mw, x); got != want {
		t.Fatalf("nanMask = %d NaNs, Go reference %d", got, want)
	}
	for i := range mw {
		if mg[i] != mw[i] || mw[i] != (x[i] == x[i]) {
			t.Fatalf("nanMask[%d] = %v, Go reference %v, x %v", i, mg[i], mw[i], x[i])
		}
	}

	mean := next.vec(n, off)
	for k := 0; k <= 9; k++ {
		bd := next.vec(k*n, off)
		yg, cg, xg := next.vec(n, off), next.vec(k, off), next.vec(n, off)
		yw, cw, xw := clone(yg), clone(cg), clone(xg)
		sameScalar(t, "centerProjectMasked", centerProjectMasked(yg, cg, x, mean, bd, xg, mask),
			centerProjectMaskedGo(yw, cw, x, mean, bd, xw, mask))
		sameBits(t, "centerProjectMasked y", yg, yw)
		sameBits(t, "centerProjectMasked coef", cg, cw)
		sameBits(t, "centerProjectMasked xp", xg, xw)
	}

	for k := 1; k <= 9; k++ {
		p := next.vec(k*n, off)
		gg := next.vec(k*k, off)
		gw := clone(gg)
		gramLower(gg, k, p)
		gramLowerGo(gw, k, p)
		sameBits(t, "gramLower", gg, gw)
	}

	stride := n + 3
	for k := 1; k <= 9; k++ {
		bd, coef := next.vec(k*stride, off), next.vec(k, off)
		dg := next.vec(n, off)
		dw, dl := clone(dg), clone(dg)
		addRowCombination(dg, coef, bd[2:], stride)
		addRowCombinationGo(dw, coef, bd[2:], stride)
		sameBits(t, "addRowCombination", dg, dw)
		for j, c := range coef {
			lerpGo(dl, 1, dl, c, bd[2+j*stride:][:n])
		}
		sameBits(t, "addRowCombination against Lerp", dw, dl)
	}
}

// TestKernelsMatchGoReference holds each kernel entry (assembly on amd64) to
// its Go reference bit for bit, across every tail length up to 67, the
// engine's d, odd d, and unaligned starts.
func TestKernelsMatchGoReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	next := specialInput(rng)
	lengths := []int{400, 1000, 1001, 1100}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 2, 3} {
			checkKernels(t, next, n, off)
		}
	}
	// Finite inputs only, so a lane mix-up cannot hide behind a NaN.
	normal := kernelInput(rng.NormFloat64)
	for _, n := range lengths {
		checkKernels(t, normal, n, 1)
	}
}

// FuzzKernelsMatchGoReference is TestKernelsMatchGoReference over fuzzed bit
// patterns: data supplies the float64 values in turn (repeating when short).
func FuzzKernelsMatchGoReference(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)), uint16(5), uint8(1))
	seed := make([]byte, 0, 8*len(kernelSpecials))
	for _, v := range kernelSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint16(67), uint8(1))
	f.Add(seed[8:], uint16(401), uint8(0))
	// 61 distinct finite values: a prime count, so the cycle never lines up
	// with a kernel's lanes and a swapped accumulator shows in the bits.
	rng := rand.New(rand.NewPCG(7, 9))
	varied := make([]byte, 0, 8*61)
	for range 61 {
		varied = binary.LittleEndian.AppendUint64(varied, math.Float64bits(rng.NormFloat64()))
	}
	f.Add(varied, uint16(403), uint8(3))
	// Lengths that leave 1, 2 and 3 elements after the 4-wide steps.
	for _, n := range []uint16{9, 18, 403} {
		f.Add(varied[8:], n, uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint16, off uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		i := 0
		next := kernelInput(func() float64 {
			if len(vals) == 0 {
				return 0
			}
			i++
			return vals[(i-1)%len(vals)]
		})
		checkKernels(t, next, int(n%1100), int(off%4))
	})
}

// BenchmarkKernels times each d-long entry on one goroutine, at the engine's
// k = 5 and the chunk widths MulStack runs (c = 1 is the rank-one rebuild,
// 6 the pick at d = 400 and 1000, 11 a wide chunk). `make bench-kernels`
// runs it at -cpu 1 with eight counts.
func BenchmarkKernels(b *testing.B) {
	const k = 5
	rng := rand.New(rand.NewPCG(11, 13))
	for _, d := range []int{16, 400, 1000} {
		x, y := randVec(rng, d), randVec(rng, d)
		mean, dst := randVec(rng, d), make([]float64, d)
		basis, coef := randDense(rng, k, d), make([]float64, k)
		run := func(name string, f func()) {
			b.Run(fmt.Sprintf("%s/d-%d", name, d), func(b *testing.B) {
				for range b.N {
					f()
				}
			})
		}
		run("CenterProject", func() { CenterProject(dst, coef, x, mean, basis) })
		for _, c := range []int{1, 6, 11} {
			a, ys, out := randDense(rng, k, k+c), randDense(rng, c, d), NewDense(k, d)
			run(fmt.Sprintf("MulStack/c-%d", c), func() { MulStack(out, a, basis, ys, c) })
		}
		rows, gram := randDense(rng, 6, d), NewDense(6, 6)
		run("SyrkRows/c-6", func() { SyrkRows(gram, rows, 6) })
		run("Lerp", func() { Lerp(dst, 0.25, x, 0.75, y) })
		// A gappy row: 30% of its bins missing in one run.
		m0, m1 := d/4, d/4+3*d/10
		mask, xg, xp := make([]bool, d), clone(x), make([]float64, d)
		for i := range mask {
			if mask[i] = i < m0 || i >= m1; !mask[i] {
				xg[i] = math.NaN()
			}
		}
		g := make([]float64, k*k)
		run("NaNMask", func() { kernelCount = NaNMask(mask, xg) })
		run("CenterProjectMasked", func() { CenterProjectMasked(dst, coef, xp, xg, mean, mask, basis) })
		run("GramLower/k-5", func() { GramLower(g, k, basis.Data()[:k*(m1-m0)]) })
		run("AddRowCombination", func() { AddRowCombination(dst[m0:m1], coef, basis, m0) })
		run("CopyFinite", func() { kernelSink = CopyFinite(dst, x) })
	}
}

var (
	kernelSink  bool
	kernelCount int
)
