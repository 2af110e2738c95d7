package mat

import (
	"math/rand/v2"
	"testing"
)

// TestPoolKernelsMatchReference checks BasisUpdate — the row-major update
// the repo benchmark times in isolation — against the staged E·M + Yᵀ·W of
// the independent Mul/AddMulTARows reference kernels.
func TestPoolKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	d, k, r := 173, 6, 5
	vecs := randDense(rng, d, k)
	mt := randDense(rng, k, k)
	y := randDense(rng, r, d)
	w := randDense(rng, r, k)

	p := NewPool(1)
	p.Reserve(k + r)
	want := Mul(nil, vecs, mt.T())
	AddMulTARows(want, y, w, r)
	got := vecs.Clone()
	p.BasisUpdate(got, mt, y, w, r)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatalf("BasisUpdate deviates from staged reference")
	}
}

// TestPoolZeroAllocs pins the zero-allocation contract of BasisUpdate once
// its scratch is reserved.
func TestPoolZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 56))
	d, k, r := 512, 6, 8
	vecs := randDense(rng, d, k)
	mt := randDense(rng, k, k)
	y := randDense(rng, r, d)
	w := randDense(rng, r, k)
	p := NewPool(1)
	p.Reserve(k + r)
	if allocs := testing.AllocsPerRun(50, func() { p.BasisUpdate(vecs, mt, y, w, r) }); allocs != 0 {
		t.Fatalf("BasisUpdate allocates %.1f/op, want 0", allocs)
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
		{16, 3}, {400, 6}, {1000, 6}, {2000, 7}, {4000, 7},
	} {
		for call := 0; call < 2; call++ {
			if c := BlockSize(tc.d, 5, 16); c != tc.want {
				t.Fatalf("call %d: BlockSize(%d,5,16) = %d, want %d", call, tc.d, c, tc.want)
			}
		}
	}
}
