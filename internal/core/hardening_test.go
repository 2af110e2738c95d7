package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/robust"
)

// These tests target the hardening machinery added on top of the paper's
// equations: warm-up outlier pre-filtering, robust seed eigenvalues,
// scale-collapse rescue, and iterative gappy warm-up refinement.

func TestFilterGrossOutliersDropsContamination(t *testing.T) {
	rng := rand.New(rand.NewPCG(500, 1))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.1)
	xs := m.samples(20)
	// Replace 4 with gross outliers.
	for i := 0; i < 4; i++ {
		for j := range xs[i] {
			xs[i][j] = 100 * rng.NormFloat64()
		}
	}
	kept := filterGrossOutliers(xs, robust.DefaultBisquare(), 0.5, robust.DefaultBisquare().C*robust.DefaultBisquare().C, 2)
	if len(kept) > 16 {
		t.Fatalf("filter kept %d of 20 (should drop the 4 gross outliers)", len(kept))
	}
	for _, x := range kept {
		if mat.Norm2(x) > 50 {
			t.Fatal("a gross outlier survived the filter")
		}
	}
}

func TestFilterGrossOutliersKeepsCleanData(t *testing.T) {
	rng := rand.New(rand.NewPCG(501, 2))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.1)
	xs := m.samples(20)
	kept := filterGrossOutliers(xs, robust.DefaultBisquare(), 0.5, 9, 2)
	if len(kept) < 15 {
		t.Fatalf("filter dropped too much clean data: %d of 20", len(kept))
	}
}

func TestFilterGrossOutliersNeverStarves(t *testing.T) {
	// All points identical except one: the filter must not shrink the
	// buffer below k+2 (it returns the input unchanged instead).
	xs := make([][]float64, 6)
	for i := range xs {
		xs[i] = []float64{1, 2, 3, 4}
	}
	xs[5] = []float64{100, 100, 100, 100}
	kept := filterGrossOutliers(xs, robust.DefaultBisquare(), 0.5, 2.4, 4)
	if len(kept) < 6 {
		t.Fatalf("filter starved the buffer: %d", len(kept))
	}
}

func TestPoisonedWarmupRecoversFast(t *testing.T) {
	// 30% outliers *during warm-up*; the engine must still converge within
	// a couple of windows instead of carrying inflated eigenvalues for
	// N·ln(λ_bad/λ_true) observations.
	rng := rand.New(rand.NewPCG(502, 3))
	m := newModel(rng, 50, 3, []float64{4, 2, 1}, 0.1)
	m.outlier = 0.30
	en, err := NewEngine(Config{Dim: 50, Components: 3, Alpha: 1 - 1.0/500})
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, en.Config().InitSize+1)
	if !en.Ready() {
		t.Fatal("engine did not initialize")
	}
	m.outlier = 0.1
	feedN(t, en, m, 1500)
	if aff := en.Eigensystem().SubspaceAffinity(m.basis); aff < 0.9 {
		t.Fatalf("poisoned warm-up not recovered after 3 windows: affinity %v", aff)
	}
}

func TestScaleCollapseRescue(t *testing.T) {
	rng := rand.New(rand.NewPCG(503, 4))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	cfg := testConfig(20, 2)
	cfg.RescueStreak = 40
	en, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, 500)
	// Force a scale collapse by hand.
	en.state.Sigma2 = 1e-20
	en.minSigma2 = 0
	// Everything now gets weight zero until the rescue fires.
	for i := 0; i < cfg.RescueStreak+5; i++ {
		x, _ := m.sample()
		if _, err := en.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	if en.Rescues() == 0 {
		t.Fatal("rescue never fired")
	}
	if en.state.Sigma2 < 1e-6 {
		t.Fatalf("rescue did not restore the scale: %v", en.state.Sigma2)
	}
	// Subsequent inliers get weight again.
	x, _ := m.sample()
	u, err := en.Observe(x)
	if err != nil {
		t.Fatal(err)
	}
	if u.Weight == 0 {
		t.Fatal("engine still frozen after rescue")
	}
}

func TestRescueDisabled(t *testing.T) {
	rng := rand.New(rand.NewPCG(504, 5))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	cfg := testConfig(20, 2)
	cfg.RescueStreak = -1
	en, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, 300)
	en.state.Sigma2 = 1e-20
	en.minSigma2 = 0
	for i := 0; i < 200; i++ {
		x, _ := m.sample()
		en.Observe(x)
	}
	if en.Rescues() != 0 {
		t.Fatal("disabled rescue fired anyway")
	}
}

func TestSortEigensystem(t *testing.T) {
	basis := mat.NewDenseData(2, 3, []float64{
		1, 2, 3,
		4, 5, 6,
	})
	vals := []float64{0.5, 3, 1}
	sortEigensystem(basis, vals)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 0.5 {
		t.Fatalf("vals = %v", vals)
	}
	if basis.At(0, 0) != 2 || basis.At(0, 1) != 3 || basis.At(0, 2) != 1 {
		t.Fatalf("basis columns not permuted: %v", basis)
	}
}

func TestRefineGappyWarmupHarmlessOnSlidingMasks(t *testing.T) {
	// The survey-like regime: a contiguous observation window sliding per
	// sample. Warm-up refinement must not hurt the seeded basis relative
	// to raw bin-mean filling, and the engine must initialize cleanly.
	run := func(refine bool) float64 {
		rng := rand.New(rand.NewPCG(505, 6))
		m := newModel(rng, 60, 2, []float64{4, 1}, 0.05)
		cfg := Config{Dim: 60, Components: 2, Extra: 1, Alpha: 1 - 1.0/500, InitSize: 24}
		en, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		en.disableWarmupRefine = !refine
		const margin = 12
		for i := 0; i < 24; i++ {
			x, _ := m.sample()
			mask := make([]bool, 60)
			shift := rng.IntN(margin + 1)
			for j := margin - shift; j < 60-shift; j++ {
				mask[j] = true
			}
			if _, err := en.ObserveMasked(x, mask); err != nil {
				t.Fatal(err)
			}
		}
		if !en.Ready() {
			t.Fatal("engine did not initialize")
		}
		return en.Eigensystem().SubspaceAffinity(m.basis)
	}
	with := run(true)
	without := run(false)
	if with < without-0.1 {
		t.Fatalf("EM warm-up refinement should not hurt: with %v, without %v", with, without)
	}
	if with < 0.25 {
		t.Fatalf("refined warm-up too weak: %v", with)
	}
}

func TestRobustSeedEigenvaluesAreSane(t *testing.T) {
	// Even with a clean warm-up, seed eigenvalues must be finite, ordered,
	// and within a plausible range of the planted spectrum.
	rng := rand.New(rand.NewPCG(507, 8))
	m := newModel(rng, 40, 3, []float64{9, 4, 1}, 0.05)
	en, _ := NewEngine(testConfig(40, 3))
	feedN(t, en, m, en.Config().InitSize+1)
	es := en.Eigensystem()
	for j := 0; j < 2; j++ {
		if es.Values[j] < es.Values[j+1] {
			t.Fatalf("seed eigenvalues not sorted: %v", es.Values)
		}
	}
	if !es.checkFinite() {
		t.Fatal("non-finite seed state")
	}
	if es.Values[0] <= 0 || es.Values[0] > 1e4 {
		t.Fatalf("implausible seed eigenvalue %v", es.Values[0])
	}
}

func TestMinSigma2FloorsRecursion(t *testing.T) {
	rng := rand.New(rand.NewPCG(508, 9))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	en, _ := NewEngine(testConfig(20, 2))
	feedN(t, en, m, 200)
	// Feed vectors lying exactly in the current plane: r² = 0 repeatedly.
	es := en.Eigensystem()
	col := es.Component(0)
	for i := 0; i < 500; i++ {
		x := mat.CopyVec(es.Mean)
		mat.Axpy(2*rng.NormFloat64(), col, x)
		if _, err := en.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	if s := en.Eigensystem().Sigma2; math.IsNaN(s) || s <= 0 {
		t.Fatalf("sigma2 degenerated to %v", s)
	}
}

func TestQuickselectMedianFloat(t *testing.T) {
	if m := quickselectMedianFloat([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := quickselectMedianFloat([]float64{4, 1}); m != 1 {
		t.Fatalf("even median = %v", m)
	}
}

// TestOverflowingRowRejected feeds a row of finite entries whose ‖x−µ‖²
// overflows to +Inf. Every entry point a complete row can take must reject
// it, before any recursion runs: absorbed, it would set σ² and the location
// sum to NaN and freeze the mean for good.
func TestOverflowingRowRejected(t *testing.T) {
	const d = 16
	huge := make([]float64, d)
	all := make([]bool, d)
	for i := range huge {
		huge[i], all[i] = 1e200, true
	}
	for _, tc := range []struct {
		name    string
		observe func(en *Engine) error
	}{
		{"Observe", func(en *Engine) error { _, err := en.Observe(huge); return err }},
		{"ObserveBlock", func(en *Engine) error { _, err := en.ObserveBlock([][]float64{huge}, nil); return err }},
		{"ObserveMasked", func(en *Engine) error { _, err := en.ObserveMasked(huge, all); return err }},
		{"ObserveBlockMasked", func(en *Engine) error {
			_, err := en.ObserveBlockMasked([][]float64{huge}, [][]bool{all}, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(509, 10))
			m := newModel(rng, d, 2, []float64{4, 1}, 0.05)
			en, err := NewEngine(testConfig(d, 2))
			if err != nil {
				t.Fatal(err)
			}
			feedN(t, en, m, 500)
			var before, after bytes.Buffer
			if err := WriteEigensystem(&before, en.Eigensystem()); err != nil {
				t.Fatal(err)
			}
			if err := tc.observe(en); err == nil {
				t.Fatal("overflowing row accepted")
			}
			if err := WriteEigensystem(&after, en.Eigensystem()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("rejected row changed the eigensystem: %v", en.Eigensystem())
			}
		})
	}
}
