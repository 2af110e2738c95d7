package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x, y := a[:n], b[:n]
		d1, d2 := Dot(x, y), Dot(y, x)
		return d1 == d2 || (math.IsNaN(d1) && math.IsNaN(d2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllFinite puts one non-finite value at every position of every length
// up to 9 (all four chains and the tail) over large, tiny and signed-zero
// finite neighbours.
func TestAllFinite(t *testing.T) {
	for _, fill := range []float64{1e308, -5e-324, math.Copysign(0, -1)} {
		for n := 0; n <= 9; n++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = fill
			}
			if !AllFinite(x) {
				t.Fatalf("fill %g n=%d: finite row reported non-finite", fill, n)
			}
			for i := range x {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					x[i] = bad
					if AllFinite(x) {
						t.Fatalf("fill %g n=%d: %g at %d not seen", fill, n, bad, i)
					}
				}
				x[i] = fill
			}
		}
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 1) {
		t.Fatal("Norm2 overflowed")
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 = %v, want %v", got, want)
	}
}

func TestNorm2UnderflowSafe(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64 * 4
	got := Norm2([]float64{tiny, tiny, tiny})
	if got == 0 {
		t.Fatal("Norm2 underflowed to 0")
	}
}

func TestNorm2TriangleInequalityProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		x, y := a[:n], b[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true // skip pathological inputs
			}
		}
		s := make([]float64, n)
		AddTo(s, x, y)
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	if !EqualApproxVec(y, want, 0) {
		t.Fatalf("Axpy = %v, want %v", y, want)
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	y := []float64{math.NaN(), 2}
	x := []float64{1, 1}
	Axpy(0, x, y)
	if !math.IsNaN(y[0]) || y[1] != 2 {
		t.Fatalf("Axpy with alpha=0 modified y: %v", y)
	}
}

func TestScale(t *testing.T) {
	x := []float64{1, -2}
	Scale(-3, x)
	if x[0] != -3 || x[1] != 6 {
		t.Fatalf("Scale = %v", x)
	}
}

func TestAddSubTo(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	AddTo(dst, x, y)
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("AddTo = %v", dst)
	}
	SubTo(dst, y, x)
	if dst[0] != 9 || dst[1] != 18 {
		t.Fatalf("SubTo = %v", dst)
	}
}

func TestSubToAliasing(t *testing.T) {
	x := []float64{5, 7}
	SubTo(x, x, []float64{1, 2})
	if x[0] != 4 || x[1] != 5 {
		t.Fatalf("SubTo aliased = %v", x)
	}
}

func TestLerp(t *testing.T) {
	dst := make([]float64, 2)
	Lerp(dst, 0.25, []float64{4, 8}, 0.75, []float64{0, 4})
	if dst[0] != 1 || dst[1] != 5 {
		t.Fatalf("Lerp = %v", dst)
	}
}

func TestLerpConvexProperty(t *testing.T) {
	// For 0<=g<=1, lerp output lies within [min,max] of inputs entrywise.
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(16)
		x, y := randVec(rng, n), randVec(rng, n)
		g := rng.Float64()
		dst := make([]float64, n)
		Lerp(dst, g, x, 1-g, y)
		for i := range dst {
			lo, hi := math.Min(x[i], y[i]), math.Max(x[i], y[i])
			if dst[i] < lo-1e-12 || dst[i] > hi+1e-12 {
				t.Fatalf("Lerp out of hull at %d: %v not in [%v,%v]", i, dst[i], lo, hi)
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{3, 4}
	n := Normalize(x)
	if math.Abs(n-5) > 1e-15 {
		t.Fatalf("Normalize returned %v, want 5", n)
	}
	if math.Abs(Norm2(x)-1) > 1e-15 {
		t.Fatalf("normalized norm = %v", Norm2(x))
	}
}

func TestNormalizeZero(t *testing.T) {
	x := []float64{0, 0}
	if n := Normalize(x); n != 0 {
		t.Fatalf("Normalize(0) = %v", n)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatal("zero vector modified")
	}
}

func TestCopyVecIndependence(t *testing.T) {
	src := []float64{1, 2}
	dst := CopyVec(src)
	dst[0] = 99
	if src[0] != 1 {
		t.Fatal("CopyVec aliases source")
	}
}

func TestFill(t *testing.T) {
	x := make([]float64, 3)
	Fill(x, 2.5)
	for _, v := range x {
		if v != 2.5 {
			t.Fatalf("Fill = %v", x)
		}
	}
}

func TestEqualApproxVec(t *testing.T) {
	if !EqualApproxVec([]float64{1, 2}, []float64{1.0001, 2}, 1e-3) {
		t.Fatal("should be approx equal")
	}
	if EqualApproxVec([]float64{1}, []float64{1, 2}, 1) {
		t.Fatal("length mismatch should not be equal")
	}
	if EqualApproxVec([]float64{1}, []float64{1.1}, 1e-3) {
		t.Fatal("should not be approx equal")
	}
}
