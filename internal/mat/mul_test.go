package mat

import (
	"math/rand/v2"
	"testing"
)

// naiveMul is the reference triple-loop product used to validate the
// optimized kernels.
func naiveMul(a, b *Dense) *Dense {
	c := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMulSmallKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(nil, a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !c.EqualApprox(want, 1e-12) {
		t.Fatalf("Mul = %v", c)
	}
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.IntN(12), 1+rng.IntN(12), 1+rng.IntN(12)
		a, b := randDense(rng, m, k), randDense(rng, k, n)
		if got, want := Mul(nil, a, b), naiveMul(a, b); !got.EqualApprox(want, 1e-10) {
			t.Fatalf("Mul mismatch at %dx%dx%d", m, k, n)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 22))
	a := randDense(rng, 6, 6)
	if !Mul(nil, a, Identity(6)).EqualApprox(a, 1e-14) {
		t.Fatal("A·I != A")
	}
	if !Mul(nil, Identity(6), a).EqualApprox(a, 1e-14) {
		t.Fatal("I·A != A")
	}
}

func TestMulDstReuseAndShapePanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 23))
	a, b := randDense(rng, 4, 3), randDense(rng, 3, 5)
	dst := NewDense(4, 5)
	got := Mul(dst, a, b)
	if got != dst {
		t.Fatal("Mul should reuse dst")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad dst shape")
		}
	}()
	Mul(NewDense(1, 1), a, b)
}

func TestMulInnerDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(nil, NewDense(2, 3), NewDense(4, 2))
}

func TestTransposeProductIdentity(t *testing.T) {
	// (AB)ᵀ == BᵀAᵀ
	rng := rand.New(rand.NewPCG(14, 24))
	a, b := randDense(rng, 7, 4), randDense(rng, 4, 6)
	lhs := Mul(nil, a, b).T()
	rhs := Mul(nil, b.T(), a.T())
	if !lhs.EqualApprox(rhs, 1e-10) {
		t.Fatal("(AB)ᵀ != BᵀAᵀ")
	}
}

func TestMulTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 25))
	a, b := randDense(rng, 9, 4), randDense(rng, 9, 5)
	got := MulTA(nil, a, b)
	want := Mul(nil, a.T(), b)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("MulTA mismatch")
	}
}

func TestMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 26))
	a, b := randDense(rng, 5, 7), randDense(rng, 6, 7)
	got := MulBT(nil, a, b)
	want := Mul(nil, a, b.T())
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("MulBT mismatch")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MulVec(nil, a, []float64{1, 1, 1})
	if !EqualApproxVec(y, []float64{6, 15}, 1e-14) {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 27))
	a := randDense(rng, 8, 5)
	x := randVec(rng, 8)
	got := MulVecT(nil, a, x)
	want := MulVec(nil, a.T(), x)
	if !EqualApproxVec(got, want, 1e-12) {
		t.Fatal("MulVecT mismatch")
	}
}

func TestMulVecDstChecks(t *testing.T) {
	a := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulVec(make([]float64, 3), a, []float64{1, 2})
}

func TestGramMatchesMulTA(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 28))
	for trial := 0; trial < 10; trial++ {
		a := randDense(rng, 2+rng.IntN(30), 1+rng.IntN(8))
		g := Gram(nil, a)
		want := MulTA(nil, a, a)
		if !g.EqualApprox(want, 1e-10) {
			t.Fatal("Gram != AᵀA")
		}
		if !g.IsSymmetric(0) {
			t.Fatal("Gram not exactly symmetric")
		}
	}
}

func TestGramPSDProperty(t *testing.T) {
	// xᵀGx >= 0 for all x when G = AᵀA.
	rng := rand.New(rand.NewPCG(19, 29))
	for trial := 0; trial < 50; trial++ {
		a := randDense(rng, 3+rng.IntN(10), 1+rng.IntN(6))
		g := Gram(nil, a)
		x := randVec(rng, a.Cols())
		q := Dot(x, MulVec(nil, g, x))
		if q < -1e-9 {
			t.Fatalf("Gram not PSD: xᵀGx = %v", q)
		}
	}
}

func TestRankOneUpdate(t *testing.T) {
	c := NewDense(2, 2)
	RankOneUpdate(c, 2, []float64{1, 2}, []float64{3, 4})
	want := NewDenseData(2, 2, []float64{6, 8, 12, 16})
	if !c.EqualApprox(want, 0) {
		t.Fatalf("RankOneUpdate = %v", c)
	}
}

func TestAddScaled(t *testing.T) {
	c := NewDenseData(1, 2, []float64{1, 2})
	AddScaled(c, 3, NewDenseData(1, 2, []float64{10, 20}))
	if c.At(0, 0) != 31 || c.At(0, 1) != 62 {
		t.Fatalf("AddScaled = %v", c)
	}
}

func BenchmarkMulSerial(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	a, x := randDense(rng, 256, 256), randDense(rng, 256, 256)
	dst := NewDense(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, a, x)
	}
}

func BenchmarkGramTall(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := randDense(rng, 2000, 6)
	dst := NewDense(6, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gram(dst, a)
	}
}

func TestDataSharesStorage(t *testing.T) {
	m := NewDense(2, 2)
	m.Data()[3] = 7
	if m.At(1, 1) != 7 {
		t.Fatal("Data should expose backing storage")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	m := NewDense(2, 2)
	for name, fn := range map[string]func(){
		"SetCol":        func() { m.SetCol(0, []float64{1}) },
		"CopyFrom":      func() { m.CopyFrom(NewDense(3, 3)) },
		"RankOneUpdate": func() { RankOneUpdate(m, 1, []float64{1}, []float64{1, 2}) },
		"AddScaled":     func() { AddScaled(m, 1, NewDense(1, 1)) },
		"MulVecT-dst":   func() { MulVecT(make([]float64, 5), m, []float64{1, 2}) },
		"MulTA":         func() { MulTA(nil, NewDense(2, 2), NewDense(3, 2)) },
		"MulBT":         func() { MulBT(nil, NewDense(2, 2), NewDense(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqualApproxShapeMismatch(t *testing.T) {
	if NewDense(2, 2).EqualApprox(NewDense(2, 3), 1) {
		t.Fatal("different shapes cannot be approx equal")
	}
}
