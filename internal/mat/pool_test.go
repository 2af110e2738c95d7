package mat

import (
	"math/rand/v2"
	"testing"
)

// poolForcedAll builds one pool per worker count with the crossover forced
// open, runs f against each, and closes them.
func poolForcedAll(t *testing.T, reserve int, f func(t *testing.T, p *Pool)) {
	t.Helper()
	for _, nw := range []int{2, 3, 4, 7} {
		p := NewPool(nw)
		p.SetMinWork(0)
		p.Reserve(reserve)
		f(t, p)
		p.Close()
	}
}

// TestPoolKernelsForcedParallelism checks the determinism contract: with the
// crossover forced open, every pooled kernel must be BITWISE equal to its
// serial twin for every worker count — the parallel rebuild may not perturb
// the estimator by a single ulp.
func TestPoolKernelsForcedParallelism(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	dims := []struct{ d, k, r int }{
		{5, 2, 1}, {63, 5, 3}, {256, 7, 8}, {400, 5, 6}, {517, 9, 16},
	}
	for _, dim := range dims {
		d, k, r := dim.d, dim.k, dim.r
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
		for j := range yw {
			yw[j] = rng.NormFloat64()
		}
		np := CenterProjectPanels(d)
		part := make([]float64, np*(k+1))

		// Serial references from a nil pool (plus explicitly reserved scratch
		// via a 1-participant pool for the scratch-needing kernels).
		ser := NewPool(1)
		ser.Reserve(k + r)
		wantMul := ser.Mul(nil, y, vecs) // r×d · d×k
		wantAdd := randDense(rng, d, k)
		addInit := wantAdd.Clone()
		ser.AddMulTARows(wantAdd, y, w, r)
		wantSyrk := NewDense(r, r)
		ser.SyrkRows(wantSyrk, y, r)
		wantBasis := vecs.Clone()
		ser.BasisUpdate(wantBasis, mt, y, w, r)
		wantBasisVec := vecs.Clone()
		ser.BasisUpdateVec(wantBasisVec, mt, yv, yw)
		wantY := make([]float64, d)
		wantCoef := make([]float64, k)
		wantNy2 := ser.CenterProject(wantY, wantCoef, x, mean, vecs, part)

		poolForcedAll(t, k+r, func(t *testing.T, p *Pool) {
			if got := p.Mul(nil, y, vecs); !bitwiseEqual(got, wantMul) {
				t.Fatalf("nw=%d d=%d: Pool.Mul differs from serial", p.Workers(), d)
			}
			gotAdd := addInit.Clone()
			p.AddMulTARows(gotAdd, y, w, r)
			if !bitwiseEqual(gotAdd, wantAdd) {
				t.Fatalf("nw=%d d=%d: Pool.AddMulTARows differs from serial", p.Workers(), d)
			}
			gotSyrk := NewDense(r, r)
			p.SyrkRows(gotSyrk, y, r)
			if !bitwiseEqual(gotSyrk, wantSyrk) {
				t.Fatalf("nw=%d d=%d: Pool.SyrkRows differs from serial", p.Workers(), d)
			}
			gotBasis := vecs.Clone()
			p.BasisUpdate(gotBasis, mt, y, w, r)
			if !bitwiseEqual(gotBasis, wantBasis) {
				t.Fatalf("nw=%d d=%d: Pool.BasisUpdate differs from serial", p.Workers(), d)
			}
			gotBasisVec := vecs.Clone()
			p.BasisUpdateVec(gotBasisVec, mt, yv, yw)
			if !bitwiseEqual(gotBasisVec, wantBasisVec) {
				t.Fatalf("nw=%d d=%d: Pool.BasisUpdateVec differs from serial", p.Workers(), d)
			}
			gotY := make([]float64, d)
			gotCoef := make([]float64, k)
			gotNy2 := p.CenterProject(gotY, gotCoef, x, mean, vecs, part)
			if gotNy2 != wantNy2 {
				t.Fatalf("nw=%d d=%d: Pool.CenterProject ny2 %v != %v", p.Workers(), d, gotNy2, wantNy2)
			}
			for i := range gotY {
				if gotY[i] != wantY[i] {
					t.Fatalf("nw=%d d=%d: Pool.CenterProject y[%d] differs", p.Workers(), d, i)
				}
			}
			for j := range gotCoef {
				if gotCoef[j] != wantCoef[j] {
					t.Fatalf("nw=%d d=%d: Pool.CenterProject coef[%d] differs", p.Workers(), d, j)
				}
			}
		})
		ser.Close()
	}
}

func bitwiseEqual(a, b *Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

// TestPoolKernelsMatchReference checks correctness (not just internal
// consistency) against the independent Mul/MulTA/MulBT reference kernels.
func TestPoolKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	d, k, r := 173, 6, 5
	vecs := randDense(rng, d, k)
	mt := randDense(rng, k, k)
	y := randDense(rng, r, d)
	w := randDense(rng, r, k)

	p := NewPool(3)
	defer p.Close()
	p.SetMinWork(0)
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

// TestPoolZeroAllocs pins the zero-allocation contract of the parallel
// steady state: once the pool exists and scratch is reserved, dispatching
// every kernel allocates nothing.
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

	for _, nw := range []int{1, 4} {
		p := NewPool(nw)
		p.SetMinWork(0)
		p.Reserve(k + r)
		if allocs := testing.AllocsPerRun(50, func() {
			p.Mul(mulDst, y, vecs)
			p.AddMulTARows(dst, y, w, r)
			p.SyrkRows(syrk, y, r)
			p.BasisUpdate(vecs, mt, y, w, r)
			p.BasisUpdateVec(vecs, mt, yv, yw)
			p.CenterProject(yOut, coef, x, mean, vecs, part)
		}); allocs != 0 {
			t.Fatalf("nw=%d: pooled kernels allocate %.1f/op, want 0", nw, allocs)
		}
		p.Close()
	}
}

// TestPoolCloseDegradesToSerial: a closed pool must still produce correct
// (serial) results rather than deadlock or panic.
func TestPoolCloseDegradesToSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	a, b := randDense(rng, 32, 16), randDense(rng, 16, 8)
	p := NewPool(4)
	p.SetMinWork(0)
	want := Mul(nil, a, b)
	p.Close()
	p.Close() // idempotent
	if got := p.Mul(nil, a, b); !bitwiseEqual(got, want) {
		t.Fatalf("closed pool Mul differs from serial")
	}
	var nilPool *Pool
	if got := nilPool.Mul(nil, a, b); !bitwiseEqual(got, want) {
		t.Fatalf("nil pool Mul differs from serial")
	}
	if nilPool.Workers() != 1 {
		t.Fatalf("nil pool Workers = %d", nilPool.Workers())
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

// TestPoolCrossoverCalibrated: a multi-participant pool must come out of
// construction with a finite, floored crossover.
func TestPoolCrossoverCalibrated(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if p.MinWork() < 1<<14 || p.MinWork() > 1<<30 {
		t.Fatalf("calibrated MinWork %d outside clamp", p.MinWork())
	}
}
