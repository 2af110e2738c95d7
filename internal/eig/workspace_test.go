package eig

import (
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
)

// TestJacobiSymMatchesSymEig asserts the workspace Jacobi path agrees with
// SymEig on eigenvalues and reconstruction across sizes, reusing one
// workspace per size for many matrices.
func TestJacobiSymMatchesSymEig(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	for _, n := range []int{1, 2, 3, 6, 12, 33} {
		ws := NewSymEigWorkspace(n)
		for trial := 0; trial < 8; trial++ {
			a := randSym(rng, n)
			wantVals, _, wantOK := SymEig(a)
			gotVals, v, ok := JacobiSym(a, ws)
			if ok != wantOK {
				t.Fatalf("n=%d: ok=%v want %v", n, ok, wantOK)
			}
			if !mat.EqualApproxVec(gotVals, wantVals, 1e-9) {
				t.Fatalf("n=%d: eigenvalues diverge\n got %v\nwant %v", n, gotVals, wantVals)
			}
			// Check a = V·diag(vals)·Vᵀ rather than comparing vectors
			// entrywise (sign and degenerate-subspace freedom).
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for k := 0; k < n; k++ {
						s += v.At(i, k) * gotVals[k] * v.At(j, k)
					}
					if math.Abs(s-a.At(i, j)) > 1e-8 {
						t.Fatalf("n=%d: reconstruction off at (%d,%d): %g vs %g", n, i, j, s, a.At(i, j))
					}
				}
			}
		}
	}
}

// TestJacobiSymNonFinite asserts the workspace path reports failure, not a
// hang or panic, for NaN/Inf inputs.
func TestJacobiSymNonFinite(t *testing.T) {
	ws := NewSymEigWorkspace(3)
	a := mat.NewDense(3, 3)
	a.Set(0, 1, math.NaN())
	a.Set(1, 0, math.NaN())
	if _, _, ok := JacobiSym(a, ws); ok {
		t.Fatal("JacobiSym reported convergence on NaN input")
	}
	b := mat.NewDense(3, 3)
	b.Set(2, 2, math.Inf(1))
	if _, _, ok := JacobiSym(b, ws); ok {
		t.Fatal("JacobiSym reported convergence on Inf input")
	}
}

// TestJacobiSymZeroAllocs asserts the workspace eigensolver is allocation
// free — the contract the engine's per-observation rebuild depends on.
func TestJacobiSymZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	a := randSym(rng, 6)
	ws := NewSymEigWorkspace(6)
	if n := testing.AllocsPerRun(50, func() { JacobiSym(a, ws) }); n != 0 {
		t.Fatalf("JacobiSym allocated %v times per run", n)
	}
}

// TestTridiagSymMatchesSymEig asserts the workspace tridiagonal path agrees
// with SymEig across sizes, reusing one workspace per size, leaving the input
// unmodified — the contract the block-incremental engine rebuild depends on.
func TestTridiagSymMatchesSymEig(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for _, n := range []int{1, 2, 3, 6, 15, 33} {
		ws := NewSymEigWorkspace(n)
		for trial := 0; trial < 8; trial++ {
			a := randSym(rng, n)
			orig := a.Clone()
			wantVals, _, wantOK := SymEig(a)
			gotVals, v, ok := TridiagSym(a, ws)
			if ok != wantOK {
				t.Fatalf("n=%d: ok=%v want %v", n, ok, wantOK)
			}
			if !a.EqualApprox(orig, 0) {
				t.Fatalf("n=%d: TridiagSym modified its input", n)
			}
			if !mat.EqualApproxVec(gotVals, wantVals, 1e-9) {
				t.Fatalf("n=%d: eigenvalues diverge\n got %v\nwant %v", n, gotVals, wantVals)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for k := 0; k < n; k++ {
						s += v.At(i, k) * gotVals[k] * v.At(j, k)
					}
					if math.Abs(s-a.At(i, j)) > 1e-8 {
						t.Fatalf("n=%d: reconstruction off at (%d,%d): %g vs %g", n, i, j, s, a.At(i, j))
					}
				}
			}
		}
	}
}

// TestTridiagSymNonFinite asserts the tridiagonal workspace path reports
// failure, not a hang or panic, for NaN/Inf inputs.
func TestTridiagSymNonFinite(t *testing.T) {
	ws := NewSymEigWorkspace(4)
	a := mat.NewDense(4, 4)
	a.Set(0, 2, math.NaN())
	a.Set(2, 0, math.NaN())
	if _, _, ok := TridiagSym(a, ws); ok {
		t.Fatal("TridiagSym reported convergence on NaN input")
	}
	b := mat.NewDense(4, 4)
	b.Set(3, 3, math.Inf(-1))
	if _, _, ok := TridiagSym(b, ws); ok {
		t.Fatal("TridiagSym reported convergence on Inf input")
	}
}

// TestTridiagSymZeroAllocs asserts the workspace tridiagonal eigensolver is
// allocation free at the block path's (k+c) operating size.
func TestTridiagSymZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 2))
	a := randSym(rng, 15)
	ws := NewSymEigWorkspace(15)
	if n := testing.AllocsPerRun(50, func() { TridiagSym(a, ws) }); n != 0 {
		t.Fatalf("TridiagSym allocated %v times per run", n)
	}
}

// TestOrthonormalizeWS asserts the scratch variant matches Orthonormalize
// and is allocation free.
func TestOrthonormalizeWS(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 5))
	a := randTall(rng, 40, 5)
	b := a.Clone()
	ws := NewOrthoWorkspace(40)
	if r1, r2 := Orthonormalize(a), OrthonormalizeWS(b, ws); r1 != r2 {
		t.Fatalf("replaced counts diverge: %d vs %d", r1, r2)
	}
	if !a.EqualApprox(b, 1e-14) {
		t.Fatal("OrthonormalizeWS result diverges from Orthonormalize")
	}
	c := randTall(rng, 40, 5)
	if n := testing.AllocsPerRun(50, func() { OrthonormalizeWS(c, ws) }); n != 0 {
		t.Fatalf("OrthonormalizeWS allocated %v times per run", n)
	}
}
