package mat

import (
	"math/rand/v2"
	"testing"
)

// kernelShapes are the deliberate edge shapes: degenerate 1×n and n×1,
// exact multiples of the 4-wide tile, off-by-one fringes on every side, and
// reduction dims straddling the ncBlock cache block.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 17, 1},
	{1, 5, 33},
	{33, 5, 1},
	{4, 4, 4},
	{8, 16, 8},
	{7, 9, 5},
	{13, 3, 21},
	{16, ncBlock + 7, 12},
	{5, ncBlock, 4},
	{64, 31, 48},
	{50, 6, 6}, // the engine's d×(k+1)·(k+1) SVD shape
}

// TestBlockedMulMatchesNaive asserts Mul agrees with the naive triple loop to
// 1e-12 over fixed edge shapes and randomized shapes.
func TestBlockedMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 1))
	check := func(m, k, n int) {
		t.Helper()
		a := randDense(rng, m, k)
		b := randDense(rng, k, n)
		want := naiveMul(a, b)

		if !Mul(nil, a, b).EqualApprox(want, 1e-12) {
			t.Fatalf("Mul mismatch at %dx%dx%d", m, k, n)
		}
	}
	for _, s := range kernelShapes {
		check(s.m, s.k, s.n)
	}
	for trial := 0; trial < 60; trial++ {
		check(1+rng.IntN(40), 1+rng.IntN(2*ncBlock), 1+rng.IntN(40))
	}
}

// TestBlockedTransposeKernels asserts MulTA, MulBT and MulBT's tiled kernel
// match products computed through explicit transposes.
func TestBlockedTransposeKernels(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 3))
	for trial := 0; trial < 40; trial++ {
		r := 1 + rng.IntN(3*ncBlock/2)
		m := 1 + rng.IntN(30)
		n := 1 + rng.IntN(30)

		a := randDense(rng, r, m)
		b := randDense(rng, r, n)
		want := naiveMul(a.T(), b)
		if got := MulTA(nil, a, b); !got.EqualApprox(want, 1e-11) {
			t.Fatalf("MulTA mismatch at r=%d m=%d n=%d", r, m, n)
		}

		c := randDense(rng, m, r)
		d := randDense(rng, n, r)
		wantBT := naiveMul(c, d.T())
		if got := MulBT(nil, c, d); !got.EqualApprox(wantBT, 1e-11) {
			t.Fatalf("MulBT mismatch at m=%d k=%d n=%d", m, r, n)
		}
		gotBT := NewDense(m, n)
		mulBTBlocked(gotBT, c, d)
		if !gotBT.EqualApprox(wantBT, 1e-11) {
			t.Fatalf("mulBTBlocked mismatch at m=%d k=%d n=%d", m, r, n)
		}
	}
}

// TestMulZeroAllocs asserts the dst-provided product paths are allocation
// free — the contract the engine's steady state depends on.
func TestMulZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 5))
	a := randDense(rng, 48, 32)
	b := randDense(rng, 32, 24)
	dst := NewDense(48, 24)
	if n := testing.AllocsPerRun(50, func() { Mul(dst, a, b) }); n != 0 {
		t.Fatalf("Mul with dst allocated %v times per run", n)
	}
	ta := NewDense(32, 24)
	bb := randDense(rng, 48, 24)
	if n := testing.AllocsPerRun(50, func() { MulTA(ta, a, bb) }); n != 0 {
		t.Fatalf("MulTA with dst allocated %v times per run", n)
	}
	bt := NewDense(48, 48)
	cc := randDense(rng, 48, 32)
	if n := testing.AllocsPerRun(50, func() { MulBT(bt, a, cc) }); n != 0 {
		t.Fatalf("MulBT with dst allocated %v times per run", n)
	}
	small := randDense(rng, 3, 3)
	sdst := NewDense(3, 3)
	if n := testing.AllocsPerRun(50, func() { Mul(sdst, small, small) }); n != 0 {
		t.Fatalf("small Mul with dst allocated %v times per run", n)
	}
}
