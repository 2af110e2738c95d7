package mat

import (
	"math/rand/v2"
	"testing"
)

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// TestSyrkRowsMatchesMulBT checks SyrkRows against the full A·Aᵀ computed by
// MulBT, across prefix sizes and into an oversized destination.
func TestSyrkRowsMatchesMulBT(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 1))
	const cap, d = 16, 37
	a := randomDense(rng, cap, d)
	for _, r := range []int{0, 1, 2, 3, 7, 8, 15, 16} {
		dst := randomDense(rng, cap, cap) // pre-filled: outside block must survive
		before := dst.Clone()
		SyrkRows(dst, a, r)
		want := MulBT(nil, a, a)
		for i := 0; i < cap; i++ {
			for j := 0; j < cap; j++ {
				if i < r && j < r {
					if diff := dst.At(i, j) - want.At(i, j); diff > 1e-12 || diff < -1e-12 {
						t.Fatalf("r=%d: dst[%d][%d] = %v, want %v", r, i, j, dst.At(i, j), want.At(i, j))
					}
				} else if dst.At(i, j) != before.At(i, j) {
					t.Fatalf("r=%d: SyrkRows touched entry (%d,%d) outside the leading block", r, i, j)
				}
			}
		}
	}
}

// TestAddMulTARowsMatchesMulTA checks the accumulating panel kernel against
// dst0 + Aᵀ·B on the same row prefix.
func TestAddMulTARowsMatchesMulTA(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 2))
	const cap, m, n = 16, 53, 5
	a := randomDense(rng, cap, m)
	b := randomDense(rng, cap, n)
	for _, r := range []int{0, 1, 2, 3, 4, 5, 8, 13, 16} {
		dst := randomDense(rng, m, n)
		want := dst.Clone()
		AddMulTARows(dst, a, b, r)
		if r > 0 {
			ar := NewDense(r, m)
			br := NewDense(r, n)
			for i := 0; i < r; i++ {
				copy(ar.Row(i), a.Row(i))
				copy(br.Row(i), b.Row(i))
			}
			AddScaled(want, 1, MulTA(nil, ar, br))
		}
		if !dst.EqualApprox(want, 1e-11) {
			t.Fatalf("r=%d: AddMulTARows diverged from reference", r)
		}
	}
}

// TestPanelKernelsZeroAlloc pins the no-allocation contract both kernels are
// used under in the engine's block rebuild.
func TestPanelKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 3))
	a := randomDense(rng, 8, 200)
	b := randomDense(rng, 8, 6)
	syrk := NewDense(8, 8)
	dst := NewDense(200, 6)
	allocs := testing.AllocsPerRun(50, func() {
		SyrkRows(syrk, a, 7)
		AddMulTARows(dst, a, b, 7)
	})
	if allocs != 0 {
		t.Fatalf("panel kernels allocated %v times per run", allocs)
	}
}

// TestCenterProjectPanelMatchesMulVecT checks the component-major
// center/project pass against SubTo, MulVecT over the explicit d×k transpose
// of the basis, and Dot, across odd and even d and k.
func TestCenterProjectPanelMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 4))
	for _, d := range []int{1, 2, 3, 16, 173, 400, 1000} {
		for _, k := range []int{1, 2, 5, 6} {
			basis := randomDense(rng, k, d)
			x, mean := randVec(rng, d), randVec(rng, d)
			y, coef := make([]float64, d), make([]float64, k)
			ny2 := CenterProject(y, coef, x, mean, basis)

			wantY := SubTo(make([]float64, d), x, mean)
			wantCoef := MulVecT(nil, basis.T(), wantY)
			wantNy2 := Dot(wantY, wantY)
			if !EqualApproxVec(y, wantY, 0) || !EqualApproxVec(coef, wantCoef, 1e-12*float64(d)) {
				t.Fatalf("d=%d k=%d: CenterProject deviates from SubTo/MulVecT", d, k)
			}
			if diff := ny2 - wantNy2; diff > 1e-12*wantNy2 || diff < -1e-12*wantNy2 {
				t.Fatalf("d=%d k=%d: ‖y‖² = %v, want %v", d, k, ny2, wantNy2)
			}
		}
	}
}

// TestMulStackPanelMatchesMul checks the component-major basis rebuild
// B_new = Mᵀ·B + Wᵀ·Y[:r] against its row-major statement E·M + Yᵀ·W,
// computed with Mul and MulTA on explicit transposes, for an odd component
// count, rows longer than one column block, and every stacked depth.
func TestMulStackPanelMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 5))
	const capR = 16
	for _, d := range []int{7, 400, 1000} {
		for _, k := range []int{1, 2, 5} {
			b := randomDense(rng, k, d)
			y := randomDense(rng, capR, d)
			a := randomDense(rng, k, k+capR)
			for _, r := range []int{0, 1, 3, 4, 11, 16} {
				mt := NewDense(k, k)
				wr := NewDense(r, k)
				for j := 0; j < k; j++ {
					copy(mt.Row(j), a.Row(j)[:k])
					for m := 0; m < r; m++ {
						wr.Set(m, j, a.At(j, k+m))
					}
				}
				yr := NewDense(r, d)
				for m := 0; m < r; m++ {
					copy(yr.Row(m), y.Row(m))
				}
				wantT := Mul(nil, b.T(), mt.T())
				AddScaled(wantT, 1, MulTA(nil, yr, wr))
				got := NewDense(k, d)
				MulStack(got, a, b, y, r)
				if !got.EqualApprox(wantT.T(), 1e-12*float64(k+r)) {
					t.Fatalf("d=%d k=%d r=%d: MulStack deviates from Mul + MulTA", d, k, r)
				}
			}
		}
	}
}

// TestComponentMajorKernelsZeroAllocs pins the no-allocation contract of the
// engine's per-row and per-rebuild kernels and of the export/load transpose.
func TestComponentMajorKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 6))
	const d, k, r = 400, 5, 11
	basis, next := randomDense(rng, k, d), NewDense(k, d)
	y := randomDense(rng, 16, d)
	a := randomDense(rng, k, k+16)
	x, mean := randVec(rng, d), randVec(rng, d)
	yv, coef := make([]float64, d), make([]float64, k)
	export := NewDense(d, k)
	allocs := testing.AllocsPerRun(50, func() {
		CenterProject(yv, coef, x, mean, basis)
		MulStack(next, a, basis, y, r)
		export.TransposeFrom(next)
		basis.TransposeFrom(export)
	})
	if allocs != 0 {
		t.Fatalf("component-major kernels allocated %v times per run", allocs)
	}
}
