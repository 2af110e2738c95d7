package robust

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

var allRhos = []Rho{DefaultBisquare(), NewBisquare(2.0)}

func TestRhoBoundaryConditions(t *testing.T) {
	for _, r := range allRhos {
		if got := r.Rho(0); got != 0 {
			t.Errorf("%s: rho(0) = %v, want 0", r.Name(), got)
		}
		if got := r.Rho(1e12); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: rho(inf) = %v, want 1", r.Name(), got)
		}
	}
}

func TestRhoMonotoneAndBounded(t *testing.T) {
	for _, r := range allRhos {
		prev := -1.0
		for t1 := 0.0; t1 <= 20; t1 += 0.01 {
			v := r.Rho(t1)
			if v < prev-1e-12 {
				t.Fatalf("%s: rho not monotone at %v", r.Name(), t1)
			}
			if v < 0 || v > 1 {
				t.Fatalf("%s: rho out of [0,1] at %v: %v", r.Name(), t1, v)
			}
			prev = v
		}
	}
}

func TestWIsDerivativeOfRho(t *testing.T) {
	const h = 1e-6
	for _, r := range allRhos {
		for _, t1 := range []float64{0.05, 0.3, 1.0, 1.7, 2.2, 3.9} {
			num := (r.Rho(t1+h) - r.Rho(t1-h)) / (2 * h)
			if math.Abs(num-r.W(t1)) > 1e-5 {
				t.Errorf("%s: W(%v) = %v, numeric derivative %v", r.Name(), t1, r.W(t1), num)
			}
		}
	}
}

func TestWStarMatchesRhoOverT(t *testing.T) {
	for _, r := range allRhos {
		for _, t1 := range []float64{1e-9, 0.1, 1, 5, 100} {
			want := r.Rho(t1) / t1
			if math.Abs(r.WStar(t1)-want) > 1e-6*(1+want) {
				t.Errorf("%s: WStar(%v) = %v, want %v", r.Name(), t1, r.WStar(t1), want)
			}
		}
		// Continuity at 0: WStar(0) == lim ρ(t)/t == W(0).
		if math.Abs(r.WStar(0)-r.W(0)) > 1e-9 {
			t.Errorf("%s: WStar(0)=%v != W(0)=%v", r.Name(), r.WStar(0), r.W(0))
		}
	}
}

func TestBisquareCutoffZeroWeight(t *testing.T) {
	b := NewBisquare(1.5)
	if w := b.W(1.5*1.5 + 0.001); w != 0 {
		t.Fatalf("weight beyond cutoff = %v, want 0", w)
	}
	if w := b.W(1.5*1.5 - 0.001); w <= 0 {
		t.Fatalf("weight inside cutoff = %v, want > 0", w)
	}
}

func TestConstructorsPanicOnBadC(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBisquare(0) },
		func() { NewBisquare(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestClassicCollapsesToIdentityWeights(t *testing.T) {
	c := Classic{}
	if c.W(123) != 1 || c.WStar(7) != 1 || c.Rho(3) != 3 {
		t.Fatal("Classic should be identity machinery")
	}
}

func TestMScaleGaussianConsistency(t *testing.T) {
	// For N(0, σ²) residuals and a consistently tuned bisquare, the M-scale
	// of the squared residuals should estimate σ².
	rng := rand.New(rand.NewPCG(41, 42))
	rho := DefaultBisquare()
	sigma := 2.5
	n := 20000
	r2 := make([]float64, n)
	for i := range r2 {
		z := rng.NormFloat64() * sigma
		r2[i] = z * z
	}
	s2, err := MScale(rho, r2, DefaultDelta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2-sigma*sigma)/(sigma*sigma) > 0.05 {
		t.Fatalf("M-scale = %v, want ≈ %v", s2, sigma*sigma)
	}
}

func TestMScaleSatisfiesDefiningEquation(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	rho := DefaultBisquare()
	r2 := make([]float64, 500)
	for i := range r2 {
		z := rng.NormFloat64()
		r2[i] = z * z
	}
	s2, err := MScale(rho, r2, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := RhoMean(rho, r2, s2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("rho mean at solution = %v, want 0.5", got)
	}
}

func TestMScaleRobustToContamination(t *testing.T) {
	// 30% gross outliers should barely move the scale.
	rng := rand.New(rand.NewPCG(45, 46))
	rho := DefaultBisquare()
	clean := make([]float64, 1000)
	for i := range clean {
		z := rng.NormFloat64()
		clean[i] = z * z
	}
	dirty := append([]float64(nil), clean...)
	for i := 0; i < 300; i++ {
		dirty[i] = 1e6 + rng.Float64()*1e6
	}
	sClean, err1 := MScale(rho, clean, 0.5, 0)
	sDirty, err2 := MScale(rho, dirty, 0.5, 0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if sDirty > 5*sClean {
		t.Fatalf("contaminated scale exploded: clean %v dirty %v", sClean, sDirty)
	}
	// Classical mean square, by contrast, explodes.
	if m := mean(dirty); m < 100*sClean {
		t.Fatalf("test setup wrong: classical scale should explode, got %v", m)
	}
}

func TestMScaleScaleEquivariance(t *testing.T) {
	// M-scale(k²·r²) == k²·M-scale(r²).
	rng := rand.New(rand.NewPCG(47, 48))
	rho := DefaultBisquare()
	r2 := make([]float64, 400)
	for i := range r2 {
		z := rng.NormFloat64()
		r2[i] = z * z
	}
	s1, err := MScale(rho, r2, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	k2 := 9.0
	scaled := make([]float64, len(r2))
	for i := range scaled {
		scaled[i] = k2 * r2[i]
	}
	s2, err := MScale(rho, scaled, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2-k2*s1) > 1e-6*k2*s1 {
		t.Fatalf("not scale equivariant: %v vs %v", s2, k2*s1)
	}
}

func TestMScaleErrorCases(t *testing.T) {
	rho := DefaultBisquare()
	if _, err := MScale(rho, nil, 0.5, 0); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := MScale(rho, []float64{1}, 0, 0); err == nil {
		t.Fatal("delta=0 should error")
	}
	if _, err := MScale(rho, []float64{1}, 1.5, 0); err == nil {
		t.Fatal("delta>1 should error")
	}
	// δ = 1 with Classic is the plain mean square.
	if s, err := MScale(Classic{}, []float64{2, 4}, 1, 0); err != nil || math.Abs(s-3) > 1e-9 {
		t.Fatalf("classic delta=1 M-scale = %v, %v; want mean square 3", s, err)
	}
	if _, err := MScale(rho, []float64{0, 0, 0}, 0.5, 0); err == nil {
		t.Fatal("all-zero residuals should error")
	}
}

func TestWeights(t *testing.T) {
	rho := NewBisquare(2)
	r2 := []float64{0, 1, 100}
	w := Weights(rho, r2, 1, nil)
	if len(w) != 3 {
		t.Fatal("wrong length")
	}
	if w[0] != rho.W(0) || w[2] != 0 {
		t.Fatalf("weights = %v", w)
	}
	dst := make([]float64, 3)
	if got := Weights(rho, r2, 1, dst); &got[0] != &dst[0] {
		t.Fatal("should reuse dst")
	}
}

func TestMedianSelection(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 1},
		{[]float64{3, 1, 2}, 2},
		{[]float64{5, 4, 3, 2, 1}, 3},
		{[]float64{1, 1, 1, 9}, 1},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Fatalf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianMatchesSortProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) {
				return true
			}
		}
		got := median(xs)
		// count elements <= got and >= got
		var le, ge int
		for _, v := range xs {
			if v <= got {
				le++
			}
			if v >= got {
				ge++
			}
		}
		k := (len(xs)-1)/2 + 1
		return le >= k && ge >= len(xs)-k+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedRhoNormalSanity(t *testing.T) {
	// Tiny cutoff → loss ≈ 1 almost surely; huge cutoff → loss ≈ 0.
	if v := ExpectedRhoNormal(Bisquare{C: 1e-3}); v < 0.99 {
		t.Fatalf("tiny cutoff expected rho = %v", v)
	}
	if v := ExpectedRhoNormal(Bisquare{C: 40}); v > 0.01 {
		t.Fatalf("huge cutoff expected rho = %v", v)
	}
}

func TestTuneBisquareHitsDelta(t *testing.T) {
	for _, delta := range []float64{0.2, 0.5, 0.7} {
		c := TuneBisquare(delta)
		got := ExpectedRhoNormal(Bisquare{C: c})
		if math.Abs(got-delta) > 1e-6 {
			t.Fatalf("delta %v: tuned c=%v gives E rho = %v", delta, c, got)
		}
	}
}

func TestDefaultBisquareMatchesLiveCalibration(t *testing.T) {
	want := TuneBisquare(0.5)
	if math.Abs(DefaultBisquare().C-want) > 1e-6 {
		t.Fatalf("cached default c = %v, live calibration = %v", DefaultBisquare().C, want)
	}
	// Cross-check against the classical 50%-breakdown biweight constant.
	if math.Abs(want-1.5476) > 0.01 {
		t.Fatalf("calibrated c = %v far from literature value 1.5476", want)
	}
}

func BenchmarkMScale(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	rho := DefaultBisquare()
	r2 := make([]float64, 5000)
	for i := range r2 {
		z := rng.NormFloat64()
		r2[i] = z * z
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MScale(rho, r2, 0.5, 0); err != nil {
			b.Fatal(err)
		}
	}
}
