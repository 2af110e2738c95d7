package eig

import (
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
)

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	a := randTall(rng, 20, 6)
	replaced := Orthonormalize(a)
	if replaced != 0 {
		t.Fatalf("random full-rank matrix needed %d replacements", replaced)
	}
	if err := OrthonormalityError(a); err > 1e-12 {
		t.Fatalf("not orthonormal: %v", err)
	}
}

func TestOrthonormalizeDependentColumns(t *testing.T) {
	a := mat.NewDense(8, 3)
	for i := 0; i < 8; i++ {
		a.Set(i, 0, float64(i))
		a.Set(i, 1, 2*float64(i)) // dependent
		a.Set(i, 2, float64(i*i))
	}
	replaced := Orthonormalize(a)
	if replaced != 1 {
		t.Fatalf("replaced = %d, want 1", replaced)
	}
	if err := OrthonormalityError(a); err > 1e-10 {
		t.Fatalf("not orthonormal: %v", err)
	}
	// Random dependent columns: the replacement for column 1 must be
	// orthogonal to column 0, not to the raw column 2 behind it.
	rng := rand.New(rand.NewPCG(47, 48))
	for trial := 0; trial < 5; trial++ {
		a := randTall(rng, 8, 3)
		for i := 0; i < 8; i++ {
			a.Set(i, 1, 2*a.At(i, 0))
		}
		if replaced := Orthonormalize(a); replaced != 1 {
			t.Fatalf("trial %d: replaced = %d, want 1", trial, replaced)
		}
		if err := OrthonormalityError(a); err > 1e-12 {
			t.Fatalf("trial %d: not orthonormal: %v", trial, err)
		}
	}
}

func TestOrthonormalizePreservesSpan(t *testing.T) {
	// After orthonormalizing a full-rank matrix, projecting the original
	// columns onto the new basis must reproduce them.
	rng := rand.New(rand.NewPCG(35, 36))
	a := randTall(rng, 15, 4)
	orig := a.Clone()
	Orthonormalize(a)
	// P = QQᵀ; check P·orig == orig.
	col := make([]float64, 15)
	for j := 0; j < 4; j++ {
		orig.Col(j, col)
		coef := mat.MulVecT(nil, a, col)
		proj := mat.MulVec(nil, a, coef)
		if !mat.EqualApproxVec(proj, col, 1e-9*(1+mat.NormInf(col))) {
			t.Fatalf("span not preserved for column %d", j)
		}
	}
}

func TestOrthonormalityErrorDetects(t *testing.T) {
	q := mat.Identity(3)
	if OrthonormalityError(q) != 0 {
		t.Fatal("identity should have zero error")
	}
	q.Set(0, 1, 0.5)
	if OrthonormalityError(q) < 0.4 {
		t.Fatal("should detect non-orthogonality")
	}
}
