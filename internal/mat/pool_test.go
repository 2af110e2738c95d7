package mat

import (
	"math/rand/v2"
	"testing"
)

// TestPoolKernelsMatchReference checks correctness (not just internal
// consistency) against the independent Mul/MulTA/MulBT reference kernels.
func TestPoolKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	d, k, r := 173, 6, 5
	vecs := randDense(rng, d, k)
	mt := randDense(rng, k, k)
	y := randDense(rng, r, d)
	w := randDense(rng, r, k)

	p := NewPool(1)
	p.Reserve(k + r)

	// BasisUpdate vs staged E·M + Yᵀ·W with an explicit M = mtᵀ.
	m := mt.T()
	want := Mul(nil, vecs, m)
	AddMulTARows(want, y, w, r)
	got := vecs.Clone()
	p.BasisUpdate(got, mt, y, w, r)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatalf("BasisUpdate deviates from staged reference")
	}

	// SyrkRows vs MulBT.
	wantS := MulBT(nil, y, y)
	gotS := NewDense(r, r)
	p.SyrkRows(gotS, y, r)
	if !gotS.EqualApprox(wantS, 1e-10) {
		t.Fatalf("SyrkRows deviates from MulBT")
	}

	// CenterProject vs SubTo + MulVecT + Dot.
	x := make([]float64, d)
	mean := make([]float64, d)
	for i := range x {
		x[i] = rng.NormFloat64()
		mean[i] = rng.NormFloat64()
	}
	wantY := make([]float64, d)
	SubTo(wantY, x, mean)
	wantCoef := MulVecT(nil, vecs, wantY)
	wantNy2 := Dot(wantY, wantY)
	gotY := make([]float64, d)
	gotCoef := make([]float64, k)
	part := make([]float64, CenterProjectPanels(d)*(k+1))
	gotNy2 := p.CenterProject(gotY, gotCoef, x, mean, vecs, part)
	if !EqualApproxVec(gotY, wantY, 1e-12) || !EqualApproxVec(gotCoef, wantCoef, 1e-10) {
		t.Fatalf("CenterProject deviates from staged reference")
	}
	if diff := gotNy2 - wantNy2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("CenterProject ny2 %v want %v", gotNy2, wantNy2)
	}
}

// TestPoolZeroAllocs pins the zero-allocation contract of the engine's
// steady state: once scratch is reserved, every pool kernel allocates
// nothing.
func TestPoolZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 56))
	d, k, r := 512, 6, 8
	vecs := randDense(rng, d, k)
	mt := randDense(rng, k, k)
	y := randDense(rng, r, d)
	w := randDense(rng, r, k)
	x := make([]float64, d)
	mean := make([]float64, d)
	yv := make([]float64, d)
	yw := make([]float64, k)
	for i := range x {
		x[i] = rng.NormFloat64()
		mean[i] = rng.NormFloat64()
		yv[i] = rng.NormFloat64()
	}
	dst := NewDense(d, k)
	syrk := NewDense(r, r)
	coef := make([]float64, k)
	yOut := make([]float64, d)
	part := make([]float64, CenterProjectPanels(d)*(k+1))
	mulDst := NewDense(r, k)

	p := NewPool(1)
	p.Reserve(k + r)
	if allocs := testing.AllocsPerRun(50, func() {
		p.Mul(mulDst, y, vecs)
		p.AddMulTARows(dst, y, w, r)
		p.SyrkRows(syrk, y, r)
		p.BasisUpdate(vecs, mt, y, w, r)
		p.BasisUpdateVec(vecs, mt, yv, yw)
		p.CenterProject(yOut, coef, x, mean, vecs, part)
	}); allocs != 0 {
		t.Fatalf("pool kernels allocate %.1f/op, want 0", allocs)
	}
}

// TestBlockSizeModel sanity-checks the cost-model chunk-width argmin:
// in-range, deterministic, and scaling the way the cost surface says it
// should (more basis amortization pressure at larger k ⇒ never a smaller c).
func TestBlockSizeModel(t *testing.T) {
	for _, d := range []int{50, 400, 1000, 4000} {
		prev := 0
		for _, k := range []int{2, 5, 10, 20} {
			c := BlockSize(d, k, 16)
			if c < 2 || c > 16 {
				t.Fatalf("BlockSize(%d,%d,16) = %d out of range", d, k, c)
			}
			if c != BlockSize(d, k, 16) {
				t.Fatalf("BlockSize not deterministic")
			}
			if c < prev {
				t.Fatalf("BlockSize(%d,k=%d) = %d shrank below k=%d's %d", d, k, c, k, prev)
			}
			prev = c
		}
	}
	if c := BlockSize(400, 5, 2); c != 2 {
		t.Fatalf("BlockSize cap: got %d want 2", c)
	}
}

// TestBlockSizePinned: the chunk width reaches the engine's numeric output,
// so it is a pure function of (d, k) — the same table on every machine and on
// every call, whatever the host's timings are.
func TestBlockSizePinned(t *testing.T) {
	for _, tc := range []struct{ d, want int }{
		{16, 4}, {400, 11}, {1000, 15}, {2000, 16}, {4000, 16},
	} {
		for call := 0; call < 2; call++ {
			if c := BlockSize(tc.d, 5, 16); c != tc.want {
				t.Fatalf("call %d: BlockSize(%d,5,16) = %d, want %d", call, tc.d, c, tc.want)
			}
		}
	}
}
