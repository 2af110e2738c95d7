package eig

import (
	"encoding/binary"
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

// tridiagPaths holds one workspace per n for each of TridiagSym's paths.
type tridiagPaths struct{ sel, ref map[int]*SymEigWorkspace }

// check runs TridiagSym on the path init selected and on the Go tred2/tql2
// reference, and fails unless ok, the values and V agree bit for bit.
func (p *tridiagPaths) check(t testing.TB, a *mat.Dense) {
	t.Helper()
	n := a.Rows()
	if p.sel == nil {
		p.sel, p.ref = map[int]*SymEigWorkspace{}, map[int]*SymEigWorkspace{}
	}
	if p.sel[n] == nil {
		p.sel[n], p.ref[n] = NewSymEigWorkspace(n), NewSymEigWorkspace(n)
	}
	vals, v, ok := TridiagSym(a, p.sel[n])
	on := useLanes
	useLanes = false
	rvals, rv, rok := TridiagSym(a, p.ref[n])
	useLanes = on
	if ok != rok {
		t.Fatalf("n=%d: ok=%v, reference ok=%v for %v", n, ok, rok, a.Data())
	}
	for j, x := range vals {
		if math.Float64bits(x) != math.Float64bits(rvals[j]) {
			t.Fatalf("n=%d: value %d is %v, reference %v for %v", n, j, x, rvals[j], a.Data())
		}
	}
	for j, x := range v.Data() {
		if y := rv.Data()[j]; math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("n=%d: V entry %d is %v, reference %v for %v", n, j, x, y, a.Data())
		}
	}
}

// engineGram draws the (k+c)×(k+c) Gram of one block engine update
// (core/block.go): a graded spectrum γλⱼ on a diagonal k-block, bordered by
// √(γλⱼ·w)·coefₘⱼ for c new rows with projections coefₘⱼ ~ N(0, λⱼ) at
// weight w, and the rows' dense c-corner w·yₘ·yₘ′, whose residual beyond
// the basis carries r·γλₖ/w, so that λₖ₊₁/λₖ grows with r. It returns the
// Gram and its λₖ₊₁/λₖ.
func engineGram(rng *rand.Rand, k, c int, r float64) (*mat.Dense, float64) {
	n := k + c
	g := mat.NewDense(n, n)
	lam, gamma := 1+10*rng.Float64(), 1-math.Exp(-4-5*rng.Float64())
	w := 1 - gamma
	lams := make([]float64, k)
	for j := range lams {
		lam *= 0.2 + 0.7*rng.Float64()
		lams[j] = lam
		g.Set(j, j, gamma*lam)
	}
	const extra = 8
	coef, res := mat.NewDense(c, k), mat.NewDense(c, extra)
	for m := 0; m < c; m++ {
		for j := 0; j < k; j++ {
			coef.Set(m, j, rng.NormFloat64()*math.Sqrt(lams[j]))
			g.Set(j, k+m, math.Sqrt(gamma*lams[j]*w)*coef.At(m, j))
		}
		for j := 0; j < extra; j++ {
			res.Set(m, j, rng.NormFloat64()*math.Sqrt(r*gamma*lam/(w*extra)))
		}
	}
	for m := 0; m < c; m++ {
		for m2 := m; m2 < c; m2++ {
			g.Set(k+m, k+m2, w*(mat.Dot(coef.Row(m), coef.Row(m2))+mat.Dot(res.Row(m), res.Row(m2))))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			g.Set(i, j, g.At(j, i))
		}
	}
	vals, _, _ := SymEig(g)
	return g, vals[k] / vals[k-1]
}

// mergeGram draws the 2k×2k Gram of merging two nearby k-bases with graded
// spectra λ and μ: [[diag(λ), Λ^½·C·M^½], [·ᵀ, diag(μ)]], C a near-identity
// rotation scaled by the bases' overlap.
func mergeGram(rng *rand.Rand, k int) *mat.Dense {
	rot := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			rot.Set(i, j, 0.05*rng.NormFloat64())
		}
		rot.Set(i, i, 1+rot.At(i, i))
	}
	Orthonormalize(rot)
	overlap := 1 - 0.01*rng.Float64()
	lam, mu := make([]float64, k), make([]float64, k)
	l, m := 1+10*rng.Float64(), 1+10*rng.Float64()
	for j := 0; j < k; j++ {
		l *= 0.2 + 0.7*rng.Float64()
		m *= 0.2 + 0.7*rng.Float64()
		lam[j], mu[j] = l, m
	}
	g := mat.NewDense(2*k, 2*k)
	for i := 0; i < k; i++ {
		g.Set(i, i, lam[i])
		g.Set(k+i, k+i, mu[i])
		for j := 0; j < k; j++ {
			x := math.Sqrt(lam[i]*mu[j]) * overlap * rot.At(i, j)
			g.Set(i, k+j, x)
			g.Set(k+j, i, x)
		}
	}
	return g
}

// gradedTridiag draws a small tridiagonal matrix whose entries span 10⁻³¹⁰
// to 10¹⁵⁰ with exact zeros, the inputs on which tql2's rotation chain meets
// r = 0 and deflates early.
func gradedTridiag(rng *rand.Rand) *mat.Dense {
	vals := []float64{0, 0, 0, 1, -1, 2, 3, 1e-200, 1e-300, -1e-300, 1e-310, 1e150, 1e-160}
	n := 2 + rng.IntN(5)
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n && j <= i+1; j++ {
			x := vals[rng.IntN(len(vals))]
			a.Set(i, j, x)
			a.Set(j, i, x)
		}
	}
	return a
}

// TestTridiagSymLanesMatchReference holds the path init selected (the AVX2
// lanes with deferred rotations on amd64 with AVX2) to the Go tred2/tql2
// reference bit for bit: on random symmetric matrices at n = 1…24 (from
// n = 24 the rotation log fills and flushes mid-solve) and at n = 64 and
// 100, on engine-shaped Grams at k = 5, c = 1…16 with λ₆/λ₅ spanning 0.03 to
// 0.85, on merge-shaped Grams, on repeated eigenvalues and diagonal
// input, and on graded tridiagonals where QL's chain breaks at r = 0. Where
// the Go path is the selected one it compares that path with itself.
func TestTridiagSymLanesMatchReference(t *testing.T) {
	if useLanes != mat.AVX2() {
		t.Fatalf("useLanes = %v, mat.AVX2() = %v", useLanes, mat.AVX2())
	}
	t.Logf("AVX2 lanes selected: %v", useLanes)
	rng := rand.New(rand.NewPCG(44, 1))
	trials := 400
	if testing.Short() {
		trials = 40
	}
	var p tridiagPaths
	for trial := 0; trial < trials; trial++ {
		for n := 1; n <= 24; n++ {
			p.check(t, randSym(rng, n))
		}
		p.check(t, mergeGram(rng, 5))
		p.check(t, gradedTridiag(rng))
	}
	p.check(t, randSym(rng, 64))
	p.check(t, randSym(rng, 100))
	lo, hi := 1.0, 0.0
	for trial := 0; trial < trials; trial++ {
		for c := 1; c <= 16; c++ {
			g, ratio := engineGram(rng, 5, c, math.Pow(10, -2.5+2*rng.Float64()))
			lo, hi = min(lo, ratio), max(hi, ratio)
			p.check(t, g)
		}
	}
	if lo > 0.03 || hi < 0.85 {
		t.Fatalf("engine Grams span λ₆/λ₅ %.3f–%.3f, not 0.03–0.85", lo, hi)
	}
	for _, spec := range [][]float64{
		{4, 4, 4, 0, 0, 1},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{3, 3, 2, 2, 1, 1, 0, 0, -1, -1, -1},
	} {
		a, _ := symFromSpectrum(rng, spec)
		p.check(t, a)
	}
	for n := 2; n <= 12; n++ {
		a := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, float64(i%3))
		}
		p.check(t, a)
	}
}

// FuzzTridiagSym feeds arbitrary float64 bit patterns as the upper triangle
// of an n×n symmetric matrix, n ≤ 24: both paths must agree bit for bit
// (tridiagPaths), and non-finite input must report ok=false.
func FuzzTridiagSym(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(2, 1, 0, 3, 1, 4))
	f.Add(seed(1, 0, 0, 0, 1, 0, 0, 1, 0, 1))
	f.Add(seed(1e300, -1e-300, 5e-324, 1e300, 0, -1e300))
	f.Add(seed(0, 1e-300, 1e-300, 1e150, 0, 1e-310))
	f.Add(seed(math.NaN(), 1, 2))
	f.Add(seed(1, math.Inf(-1), 2))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, 0, 300)
		for len(b) >= 8 && len(xs) < 300 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		}
		n := 0
		for (n+1)*(n+2)/2 <= len(xs) {
			n++
		}
		if n == 0 {
			return
		}
		a := mat.NewDense(n, n)
		finite := true
		for _, x := range xs[:n*(n+1)/2] {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
		at := 0
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				a.Set(i, j, xs[at])
				a.Set(j, i, xs[at])
				at++
			}
		}
		var paths tridiagPaths
		paths.check(t, a)
		if _, _, ok := TridiagSym(a, nil); !finite && ok {
			t.Fatalf("ok for non-finite input %v", xs)
		}
	})
}

// BenchmarkTridiagSymEngine times TridiagSym on 64 engine-shaped Grams
// (engineGram) in turn at k = 5, c = 1…16 (n = 6…21), on the path init
// selected and on the Go reference.
func BenchmarkTridiagSymEngine(b *testing.B) {
	rng := rand.New(rand.NewPCG(44, 2))
	for c := 1; c <= 16; c++ {
		grams := make([]*mat.Dense, 64)
		for i := range grams {
			grams[i], _ = engineGram(rng, 5, c, math.Pow(10, -2.5+2*rng.Float64()))
		}
		ws := NewSymEigWorkspace(5 + c)
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TridiagSym(grams[i%len(grams)], ws)
			}
		}
		b.Run(fmt.Sprintf("n-%d/selected", 5+c), run)
		b.Run(fmt.Sprintf("n-%d/reference", 5+c), func(b *testing.B) {
			defer func(on bool) { useLanes = on }(useLanes)
			useLanes = false
			run(b)
		})
	}
}
