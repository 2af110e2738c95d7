package eig

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"streampca/internal/mat"
)

func TestTridiagMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewPCG(900, 1))
	for _, n := range []int{2, 5, 16, 33, 64, 100} {
		a := randSym(rng, n)
		tv, tvec, ok := TridiagSym(a, nil)
		if !ok {
			t.Fatalf("n=%d: tridiag did not converge", n)
		}
		// Eigenvalues must match Jacobi's to high accuracy.
		jv, _, jok := JacobiSym(a, nil)
		if !jok {
			t.Fatalf("n=%d: reference did not converge", n)
		}
		scale := 1 + math.Abs(jv[0])
		for i := range jv {
			if math.Abs(tv[i]-jv[i]) > 1e-9*scale {
				t.Fatalf("n=%d eigenvalue %d: tridiag %v vs reference %v", n, i, tv[i], jv[i])
			}
		}
		if err := OrthonormalityError(tvec); err > 1e-10 {
			t.Fatalf("n=%d eigenvectors not orthonormal: %v", n, err)
		}
		// Eigenpair residuals.
		col := make([]float64, n)
		for k := 0; k < n; k++ {
			tvec.Col(k, col)
			av := mat.MulVec(nil, a, col)
			mat.Axpy(-tv[k], col, av)
			if mat.Norm2(av) > 1e-8*scale {
				t.Fatalf("n=%d pair %d residual %v", n, k, mat.Norm2(av))
			}
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(tv))) {
			t.Fatalf("n=%d eigenvalues not descending", n)
		}
	}
}

func TestTridiagKnownSpectrum(t *testing.T) {
	rng := rand.New(rand.NewPCG(901, 2))
	want := []float64{50, 20, 5, 1, 0.1, -3, -10}
	a, _ := symFromSpectrum(rng, want)
	vals, _, ok := TridiagSym(a, nil)
	if !ok {
		t.Fatal("did not converge")
	}
	sorted := append([]float64(nil), want...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if !mat.EqualApproxVec(vals, sorted, 1e-8) {
		t.Fatalf("vals = %v, want %v", vals, sorted)
	}
}

func TestTridiagDegenerateSpectra(t *testing.T) {
	// Repeated eigenvalues and zeros.
	rng := rand.New(rand.NewPCG(902, 3))
	want := []float64{4, 4, 4, 0, 0, 1}
	a, _ := symFromSpectrum(rng, want)
	vals, v, ok := TridiagSym(a, nil)
	if !ok {
		t.Fatal("did not converge")
	}
	if !mat.EqualApproxVec(vals, []float64{4, 4, 4, 1, 0, 0}, 1e-9) {
		t.Fatalf("vals = %v", vals)
	}
	if err := OrthonormalityError(v); err > 1e-10 {
		t.Fatalf("degenerate eigenvectors not orthonormal: %v", err)
	}
}

func TestTridiagDiagonalAndZero(t *testing.T) {
	dia := mat.NewDense(40, 40)
	for i := 0; i < 40; i++ {
		dia.Set(i, i, float64(40-i))
	}
	vals, _, ok := TridiagSym(dia, nil)
	if !ok || vals[0] != 40 || vals[39] != 1 {
		t.Fatalf("diagonal spectrum wrong: %v %v", vals[0], vals[39])
	}
	zero := mat.NewDense(35, 35)
	vals, v, ok := TridiagSym(zero, nil)
	if !ok {
		t.Fatal("zero matrix did not converge")
	}
	for _, l := range vals {
		if l != 0 {
			t.Fatalf("zero matrix eigenvalue %v", l)
		}
	}
	if err := OrthonormalityError(v); err > 1e-12 {
		t.Fatal("zero-matrix eigenvectors not orthonormal")
	}
}

func TestSymEigLargeUsesAndSurvivesTridiag(t *testing.T) {
	// SymEig on a 150×150 matrix (tridiagonal path) must satisfy the same
	// contract as the small-matrix Jacobi path.
	rng := rand.New(rand.NewPCG(903, 4))
	a := randSym(rng, 150)
	vals, v, ok := SymEig(a)
	if !ok {
		t.Fatal("did not converge")
	}
	var trA, trL float64
	for i := 0; i < 150; i++ {
		trA += a.At(i, i)
		trL += vals[i]
	}
	if math.Abs(trA-trL) > 1e-8*(1+math.Abs(trA)) {
		t.Fatalf("trace mismatch %v vs %v", trA, trL)
	}
	if err := OrthonormalityError(v); err > 1e-9 {
		t.Fatalf("orthonormality %v", err)
	}
}

// TestSymEigRunsQLAtEverySize pins SymEig's dispatch to the crossover
// BenchmarkSymEigCrossover reads: its output is TridiagSym's, bit for bit,
// at every size from 1 up, not cyclic Jacobi's below some threshold.
func TestSymEigRunsQLAtEverySize(t *testing.T) {
	rng := rand.New(rand.NewPCG(905, 1))
	for n := 1; n <= 40; n++ {
		a := randSym(rng, n)
		vals, v, _ := SymEig(a)
		wantVals, wantV, _ := TridiagSym(a, nil)
		for i, x := range wantVals {
			if math.Float64bits(vals[i]) != math.Float64bits(x) {
				t.Fatalf("n=%d: eigenvalue %d is %v, QL gives %v", n, i, vals[i], x)
			}
		}
		for i, x := range wantV.Data() {
			if math.Float64bits(v.Data()[i]) != math.Float64bits(x) {
				t.Fatalf("n=%d: eigenvector entry %d differs from QL's", n, i)
			}
		}
	}
}

// BenchmarkSymEigCrossover times both solvers at the sizes around SymEig's
// dispatch threshold (symEigQLFrom), on a workspace as the engine runs them.
func BenchmarkSymEigCrossover(b *testing.B) {
	for _, n := range []int{3, 4, 6, 8, 11, 12, 16, 20} {
		a := randSym(rand.New(rand.NewPCG(1, uint64(n))), n)
		ws := NewSymEigWorkspace(n)
		for _, s := range []struct {
			name  string
			solve func(*mat.Dense, *SymEigWorkspace) ([]float64, *mat.Dense, bool)
		}{{"jacobi", JacobiSym}, {"ql", TridiagSym}} {
			b.Run(fmt.Sprintf("n-%d/%s", n, s.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, ok := s.solve(a, ws); !ok {
						b.Fatal("no convergence")
					}
				}
			})
		}
	}
}

func BenchmarkSymEigJacobi64(b *testing.B)  { benchSymEig(b, 64, true) }
func BenchmarkSymEigTridiag64(b *testing.B) { benchSymEig(b, 64, false) }
func BenchmarkSymEigTridiag256(b *testing.B) {
	benchSymEig(b, 256, false)
}

func benchSymEig(b *testing.B, n int, forceJacobi bool) {
	rng := rand.New(rand.NewPCG(1, uint64(n)))
	a := randSym(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if forceJacobi {
			if _, _, ok := JacobiSym(a, nil); !ok {
				b.Fatal("no convergence")
			}
		} else {
			if _, _, ok := TridiagSym(a, nil); !ok {
				b.Fatal("no convergence")
			}
		}
	}
}
