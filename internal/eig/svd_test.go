package eig

import (
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
)

func randTall(rng *rand.Rand, r, c int) *mat.Dense {
	a := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

func checkSVD(t *testing.T, a *mat.Dense, d SVD, tol float64) {
	t.Helper()
	r, c := a.Dims()
	if d.U.Rows() != r || d.U.Cols() != c || len(d.S) != c || d.V.Rows() != c || d.V.Cols() != c {
		t.Fatalf("SVD shapes wrong: U %dx%d S %d V %dx%d", d.U.Rows(), d.U.Cols(), len(d.S), d.V.Rows(), d.V.Cols())
	}
	for i := 0; i < c; i++ {
		if d.S[i] < 0 {
			t.Fatalf("negative singular value %v", d.S[i])
		}
		if i > 0 && d.S[i] > d.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", d.S)
		}
	}
	if err := OrthonormalityError(d.U); err > tol {
		t.Fatalf("U not orthonormal: %v", err)
	}
	if err := OrthonormalityError(d.V); err > tol {
		t.Fatalf("V not orthogonal: %v", err)
	}
	if rec := reconstruct(d); !rec.EqualApprox(a, tol*(1+a.MaxAbs())*10) {
		t.Fatalf("reconstruction error %v", recErr(rec, a))
	}
}

// reconstruct returns U·diag(S)·Vᵀ, the matrix the decomposition represents.
func reconstruct(d SVD) *mat.Dense {
	us := d.U.Clone()
	for i := 0; i < us.Rows(); i++ {
		row := us.Row(i)
		for j, s := range d.S {
			row[j] *= s
		}
	}
	return mat.MulBT(nil, us, d.V)
}

func recErr(a, b *mat.Dense) float64 {
	d := a.Clone()
	mat.AddScaled(d, -1, b)
	return d.MaxAbs()
}

func TestThinSVDRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, dims := range [][2]int{{3, 1}, {5, 2}, {10, 4}, {100, 6}, {500, 11}, {4, 4}} {
		a := randTall(rng, dims[0], dims[1])
		d, ok := ThinSVD(a)
		if !ok {
			t.Fatalf("%v did not converge", dims)
		}
		checkSVD(t, a, d, 1e-7)
	}
}

// TestSVDRoutesAgree checks ThinSVD's Gram route (the c×c AᵀA) against the
// outer product AAᵀ, an r×r matrix solved by a different eigensolver route,
// whose top c eigenvalues are the same S².
func TestSVDRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for trial := 0; trial < 10; trial++ {
		a := randTall(rng, 30+rng.IntN(40), 1+rng.IntN(6))
		g, ok1 := ThinSVD(a)
		outer, _, ok2 := SymEig(mat.MulBT(nil, a, a))
		if !ok1 || !ok2 {
			t.Fatal("convergence failure")
		}
		for i, s := range g.S {
			if got := math.Sqrt(math.Max(outer[i], 0)); math.Abs(got-s) > 1e-7*(1+g.S[0]) {
				t.Fatalf("singular value %d disagrees: gram %v, outer %v", i, s, got)
			}
		}
	}
}

func TestThinSVDKnownSingularValues(t *testing.T) {
	// diag(3, 2) embedded in a 4x2 matrix.
	a := mat.NewDense(4, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	d, ok := ThinSVD(a)
	if !ok {
		t.Fatal("did not converge")
	}
	if !mat.EqualApproxVec(d.S, []float64{3, 2}, 1e-12) {
		t.Fatalf("S = %v", d.S)
	}
}

func TestThinSVDRankDeficient(t *testing.T) {
	// Two identical columns → rank 1; second singular value must be 0 and U
	// must still be orthonormal.
	a := mat.NewDense(6, 2)
	for i := 0; i < 6; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, float64(i+1))
	}
	d, ok := ThinSVD(a)
	if !ok {
		t.Fatal("did not converge")
	}
	if d.S[1] != 0 {
		t.Fatalf("expected zero second singular value, got %v", d.S[1])
	}
	if err := OrthonormalityError(d.U); err > 1e-10 {
		t.Fatalf("U not orthonormal after rank deficiency: %v", err)
	}
}

func TestThinSVDZeroMatrix(t *testing.T) {
	a := mat.NewDense(5, 3)
	d, ok := ThinSVD(a)
	if !ok {
		t.Fatal("did not converge")
	}
	for _, s := range d.S {
		if s != 0 {
			t.Fatalf("S = %v", d.S)
		}
	}
	if err := OrthonormalityError(d.U); err > 1e-12 {
		t.Fatalf("U not orthonormal: %v", err)
	}
}

func TestThinSVDWideInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ThinSVD(mat.NewDense(2, 3))
}

func TestSVDSingularValuesMatchEigenOfGram(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	a := randTall(rng, 50, 5)
	d, ok := ThinSVD(a)
	if !ok {
		t.Fatal("no convergence")
	}
	lam, _, ok := SymEig(mat.Gram(nil, a))
	if !ok {
		t.Fatal("no convergence")
	}
	for i := range d.S {
		if math.Abs(d.S[i]*d.S[i]-lam[i]) > 1e-8*(1+lam[0]) {
			t.Fatalf("S² != λ at %d: %v vs %v", i, d.S[i]*d.S[i], lam[i])
		}
	}
}

func TestSVDFrobeniusInvariant(t *testing.T) {
	// ‖A‖_F² == Σ sᵢ².
	rng := rand.New(rand.NewPCG(29, 30))
	for trial := 0; trial < 10; trial++ {
		a := randTall(rng, 10+rng.IntN(50), 1+rng.IntN(7))
		d, ok := ThinSVD(a)
		if !ok {
			t.Fatal("no convergence")
		}
		var ssum float64
		for _, s := range d.S {
			ssum += s * s
		}
		f := a.FrobeniusNorm()
		if math.Abs(f*f-ssum) > 1e-8*(1+f*f) {
			t.Fatalf("Frobenius invariant broken: %v vs %v", f*f, ssum)
		}
	}
}

func BenchmarkThinSVDHotPath(b *testing.B) {
	// The streaming engine's per-tuple shape: d×(p+1) with d=500, p=5.
	rng := rand.New(rand.NewPCG(1, 1))
	a := randTall(rng, 500, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ThinSVD(a); !ok {
			b.Fatal("no convergence")
		}
	}
}
