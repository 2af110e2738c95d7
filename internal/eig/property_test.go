package eig

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"streampca/internal/mat"
)

// shapeVec reshapes an arbitrary quick-generated float slice into a tall
// finite matrix, or returns nil when the input is unusable.
func shapeVec(xs []float64, maxCols int) *mat.Dense {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return nil
		}
	}
	if len(xs) < 2 {
		return nil
	}
	c := 1 + len(xs)%maxCols
	r := len(xs) / c
	if r < c {
		r = c
	}
	if r*c > len(xs) {
		c = len(xs) / r
		if c == 0 {
			return nil
		}
	}
	return mat.NewDenseData(r, c, xs[:r*c])
}

func TestQuickThinSVDReconstructs(t *testing.T) {
	f := func(xs []float64) bool {
		a := shapeVec(xs, 5)
		if a == nil {
			return true
		}
		dec, ok := ThinSVD(a)
		if !ok {
			return false
		}
		tol := 1e-7 * (1 + a.MaxAbs())
		return reconstruct(dec).EqualApprox(a, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSymEigTraceInvariant(t *testing.T) {
	f := func(xs []float64) bool {
		a := shapeVec(xs, 4)
		if a == nil {
			return true
		}
		// symmetrize the square leading block
		n := a.Cols()
		s := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s.Set(i, j, (a.At(i, j)+a.At(j, i))/2)
			}
		}
		vals, _, ok := SymEig(s)
		if !ok {
			return false
		}
		var trA, trL float64
		for i := 0; i < n; i++ {
			trA += s.At(i, i)
			trL += vals[i]
		}
		return math.Abs(trA-trL) <= 1e-8*(1+math.Abs(trA))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQROrthogonality checks Orthonormalize as the Q of a Gram–Schmidt
// QR: Q has orthonormal columns and R = QᵀA is upper triangular with Q·R = A.
func TestQuickQROrthogonality(t *testing.T) {
	rng := rand.New(rand.NewPCG(950, 1))
	f := func(seed uint64) bool {
		r := 2 + int(seed%40)
		c := 1 + int(seed/7%uint64(r))
		if c > r {
			c = r
		}
		a := mat.NewDense(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		q := a.Clone()
		if Orthonormalize(q) != 0 || OrthonormalityError(q) > 1e-11 {
			return false
		}
		rr := mat.MulTA(nil, q, a)
		for i := 0; i < c; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(rr.At(i, j)) > 1e-9*(1+a.MaxAbs()) {
					return false
				}
			}
		}
		return mat.Mul(nil, q, rr).EqualApprox(a, 1e-9*(1+a.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSingularValuesScaleLinearly(t *testing.T) {
	// SVD(k·A) has singular values k·SVD(A) — scale equivariance.
	rng := rand.New(rand.NewPCG(951, 2))
	f := func(seed uint64) bool {
		r := 3 + int(seed%20)
		c := 1 + int(seed%uint64(3))
		k := 0.5 + float64(seed%100)/25
		a := mat.NewDense(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		b := a.Clone()
		b.ScaleAll(k)
		da, ok1 := ThinSVD(a)
		db, ok2 := ThinSVD(b)
		if !ok1 || !ok2 {
			return false
		}
		for i := range da.S {
			if math.Abs(db.S[i]-k*da.S[i]) > 1e-9*(1+k*da.S[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
