package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"streampca/internal/mat"
)

// randomMask masks each bin independently with probability pMask.
func randomMask(rng *rand.Rand, d int, pMask float64) []bool {
	mask := make([]bool, d)
	for i := range mask {
		mask[i] = rng.Float64() >= pMask
	}
	return mask
}

// TestPatchProjectMatchesPatchLS checks the in-chunk patch against the
// explicit least-squares patch of PatchVector on light and heavy masks, so
// both sides of patchProject's Gram (I − P·Pᵀ over the missing bins, P·Pᵀ
// over the observed ones) are exercised.
func TestPatchProjectMatchesPatchLS(t *testing.T) {
	rng := rand.New(rand.NewPCG(300, 2))
	const d = 60
	m := newModel(rng, d, 3, []float64{9, 4, 1}, 0.05)
	en, _ := NewEngine(testConfig(d, 3))
	feedN(t, en, m, 2000)
	for _, rate := range []float64{0.2, 0.7} {
		for trial := 0; trial < 10; trial++ {
			x, _ := m.sample()
			mask := randomMask(rng, d, rate)
			want, wantCoef, err := en.PatchVector(x, mask)
			if err != nil {
				t.Fatal(err)
			}
			_, nMiss, err := en.patchProject(0, x, mask)
			if err != nil || nMiss == 0 {
				t.Fatal(nMiss, err)
			}
			if !mat.EqualApproxVec(en.ws.xPatch, want, 1e-9) || !mat.EqualApproxVec(en.ws.coefs.Row(0), wantCoef, 1e-9) {
				t.Fatalf("gap rate %.1f trial %d: patchProject deviates from the least-squares patch", rate, trial)
			}
		}
	}
}

func TestPatchVectorRecoversMissingBins(t *testing.T) {
	rng := rand.New(rand.NewPCG(300, 1))
	m := newModel(rng, 40, 3, []float64{9, 4, 1}, 0.02)
	en, _ := NewEngine(testConfig(40, 3))
	feedN(t, en, m, 3000)

	for trial := 0; trial < 20; trial++ {
		x, _ := m.sample()
		truth := mat.CopyVec(x)
		mask := randomMask(rng, 40, 0.25)
		nMasked := 0
		for i, ok := range mask {
			if !ok {
				x[i] = math.NaN()
				nMasked++
			}
		}
		if nMasked == 0 {
			continue
		}
		patched, coef, err := en.PatchVector(x, mask)
		if err != nil {
			t.Fatal(err)
		}
		if len(coef) != 3 {
			t.Fatalf("coef length %d", len(coef))
		}
		var maxErr float64
		for i, ok := range mask {
			if ok {
				if patched[i] != x[i] {
					t.Fatal("observed bin modified")
				}
				continue
			}
			if e := math.Abs(patched[i] - truth[i]); e > maxErr {
				maxErr = e
			}
		}
		// The signal scale is ~3 (largest λ=9); reconstruction error should
		// be on the noise scale, far below signal.
		if maxErr > 0.5 {
			t.Fatalf("trial %d: patch error %v", trial, maxErr)
		}
	}
}

func TestObserveMaskedStreamConverges(t *testing.T) {
	rng := rand.New(rand.NewPCG(301, 2))
	m := newModel(rng, 40, 3, []float64{9, 4, 1}, 0.05)
	cfg := testConfig(40, 3)
	cfg.Extra = 2
	en, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		x, _ := m.sample()
		mask := randomMask(rng, 40, 0.2)
		if _, err := en.ObserveMasked(x, mask); err != nil {
			t.Fatalf("obs %d: %v", i, err)
		}
	}
	if aff := en.Eigensystem().SubspaceAffinity(m.basis); aff < 0.95 {
		t.Fatalf("gappy-stream affinity = %v", aff)
	}
}

func TestObserveMaskedWarmupUsesBinMeans(t *testing.T) {
	rng := rand.New(rand.NewPCG(302, 3))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	cfg := testConfig(20, 2)
	cfg.InitSize = 15
	en, _ := NewEngine(cfg)
	for i := 0; i < 15; i++ {
		x, _ := m.sample()
		mask := randomMask(rng, 20, 0.15)
		u, err := en.ObserveMasked(x, mask)
		if err != nil {
			t.Fatal(err)
		}
		if i < 14 && !u.Warmup {
			t.Fatal("expected warmup")
		}
	}
	if !en.Ready() {
		t.Fatal("engine should initialize from masked warm-up")
	}
}

func TestObserveMaskedValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(303, 4))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	en, _ := NewEngine(testConfig(20, 2))
	feedN(t, en, m, 200)
	x, _ := m.sample()

	if _, err := en.ObserveMasked(x[:10], make([]bool, 20)); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := en.ObserveMasked(x, make([]bool, 20)); err == nil {
		t.Fatal("fully masked should error")
	}
	// Too few observed bins to fit k components.
	mask := make([]bool, 20)
	mask[0], mask[1] = true, true
	if _, err := en.ObserveMasked(x, mask); err == nil {
		t.Fatal("insufficient observed bins should error")
	}
	// NaN in an observed bin.
	full := make([]bool, 20)
	for i := range full {
		full[i] = true
	}
	bad := mat.CopyVec(x)
	bad[5] = math.NaN()
	if _, err := en.ObserveMasked(bad, full); err == nil {
		t.Fatal("NaN in observed bin should error")
	}
}

func TestObserveMaskedCompleteVectorEqualsObserve(t *testing.T) {
	rng := rand.New(rand.NewPCG(304, 5))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	mkEngine := func() *Engine {
		en, _ := NewEngine(testConfig(20, 2))
		r2 := rand.New(rand.NewPCG(42, 42))
		m2 := newModel(r2, 20, 2, []float64{4, 1}, 0.05)
		feedN(t, en, m2, 300)
		return en
	}
	a, b := mkEngine(), mkEngine()
	full := make([]bool, 20)
	for i := range full {
		full[i] = true
	}
	x, _ := m.sample()
	ua, err1 := a.Observe(x)
	ub, err2 := b.ObserveMasked(x, full)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if ua.Weight != ub.Weight || ua.Residual2 != ub.Residual2 {
		t.Fatal("masked path with full mask should match Observe exactly")
	}
}

func TestResidualCorrectionAvoidsWeightInflation(t *testing.T) {
	// §II-D: without the p+q correction, heavily masked spectra get
	// near-zero residuals in the patched bins and thus inflated weights.
	// With Extra > 0 the residual of a masked observation should stay
	// comparable to that of complete observations.
	rng := rand.New(rand.NewPCG(305, 6))
	m := newModel(rng, 60, 3, []float64{9, 4, 1}, 0.3)
	cfg := testConfig(60, 3)
	cfg.Extra = 3
	en, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, 3000)

	var fullR2, maskR2 float64
	const trials = 300
	for i := 0; i < trials; i++ {
		x, _ := m.sample()
		uf, err := en.Observe(x)
		if err != nil {
			t.Fatal(err)
		}
		fullR2 += uf.Residual2

		y, _ := m.sample()
		mask := randomMask(rng, 60, 0.4)
		um, err := en.ObserveMasked(y, mask)
		if err != nil {
			t.Fatal(err)
		}
		maskR2 += um.Residual2
	}
	ratio := maskR2 / fullR2
	// Perfect correction would give ratio ≈ observed fraction + corrected
	// tail; without any correction the ratio collapses toward the observed
	// fraction of (d−p) noise bins (~0.6) *minus* the k-fit absorption,
	// empirically < 0.5. Require the corrected ratio to stay sane.
	if ratio < 0.35 || ratio > 1.5 {
		t.Fatalf("masked/full residual ratio = %v", ratio)
	}
}

func TestFillWithBinMeansFallsBackToZero(t *testing.T) {
	en, _ := NewEngine(Config{Dim: 4, Components: 1, InitSize: 10})
	x := []float64{1, 2, 3, 4}
	mask := []bool{true, true, true, false} // bin 3 never observed
	xp := en.fillWithBinMeans(x, mask)
	if xp[3] != 0 {
		t.Fatalf("never-observed bin should fill 0, got %v", xp[3])
	}
	if xp[0] != 1 || xp[2] != 3 {
		t.Fatal("observed bins must pass through")
	}
	// Second call: bin means now exist.
	y := []float64{3, 4, 5, 6}
	en.fillWithBinMeans(y, []bool{true, true, true, true})
	xp = en.fillWithBinMeans([]float64{0, 0, 0, 0}, []bool{false, false, false, true})
	if math.Abs(xp[0]-2) > 1e-12 {
		t.Fatalf("bin mean fill = %v", xp[0])
	}
}

func TestSolveSPD(t *testing.T) {
	g := mat.NewDenseData(2, 2, []float64{4, 1, 1, 3})
	x, err := solveSPD(g, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Verify G·x = b.
	b := mat.MulVec(nil, g, x)
	if !mat.EqualApproxVec(b, []float64{1, 2}, 1e-12) {
		t.Fatalf("solveSPD wrong: %v", x)
	}
}

func TestSolveSPDSingularWithJitter(t *testing.T) {
	// Rank-1 Gram matrix: jitter should still produce a finite solution.
	g := mat.NewDenseData(2, 2, []float64{1, 1, 1, 1})
	x, err := solveSPD(g, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", x)
		}
	}
}

func TestSolveSPDEmpty(t *testing.T) {
	x, err := solveSPD(mat.NewDense(0, 0), nil)
	if err != nil || x != nil {
		t.Fatalf("empty solve: %v %v", x, err)
	}
}

func TestPatchVectorBeforeReadyFails(t *testing.T) {
	en, _ := NewEngine(Config{Dim: 5, Components: 1})
	if _, _, err := en.PatchVector(make([]float64, 5), make([]bool, 5)); err == nil {
		t.Fatal("PatchVector before warm-up should fail")
	}
}

// patchProjectPerBin is patchProject with its former per-bin fill, kept as
// the bitwise reference for the run-wise one: the same pass, Gram and solve
// over a gathered index list, then one strided k-term sum per missing bin.
func (en *Engine) patchProjectPerBin(slot int, x []float64, mask []bool) (ny2 float64, nMiss int, err error) {
	ws := en.ws
	d, k := en.cfg.Dim, en.k
	y, coef := ws.yMat.Row(slot), ws.coefs.Row(slot)
	idx := make([]int, d)
	for i, ok := range mask {
		if !ok {
			idx[nMiss] = i
			nMiss++
		}
	}
	mean := en.state.Mean
	xp := x
	if nMiss > 0 {
		if d-nMiss <= k {
			return 0, 0, errFewObserved
		}
		xp = ws.xPatch
		copy(xp, x)
		for _, i := range idx[:nMiss] {
			xp[i] = mean[i]
		}
	}
	ny2 = mat.CenterProject(y, coef, xp, mean, en.basis)
	if math.IsNaN(ny2) || math.IsInf(ny2, 0) {
		return 0, 0, errGapNonFinite
	}
	if nMiss == 0 {
		return ny2, 0, nil
	}
	side, sign := idx[:nMiss], -1.0
	if 2*nMiss > d {
		side, sign = idx[nMiss:], 1
		t := 0
		for i, ok := range mask {
			if ok {
				side[t] = i
				t++
			}
		}
	}
	n := len(side)
	bd := en.basis.Data()
	pd := make([]float64, k*n)
	for j := 0; j < k; j++ {
		for t, i := range side {
			pd[j*n+t] = bd[j*d+i]
		}
	}
	gd := ws.gapG.Data()
	for a := 0; a < k; a++ {
		for b := 0; b <= a; b++ {
			gd[a*k+b] = sign * mat.Dot(pd[a*n:(a+1)*n], pd[b*n:(b+1)*n])
		}
		if sign < 0 {
			gd[a*k+a]++
		}
	}
	if !solveSPDInto(coef, ws.gapG, coef, ws.gapL, ws.gapTmp) {
		return 0, 0, errCholesky
	}
	for _, i := range idx[:nMiss] {
		var v float64
		for j, cj := range coef {
			v += bd[j*d+i] * cj
		}
		y[i] = v
		xp[i] = mean[i] + v
		ny2 += v * v
	}
	return ny2, nMiss, nil
}

// runMask builds a mask of alternating observed and missing runs, each 1 to
// maxRun bins long, starting with a missing run when missFirst is set.
func runMask(rng *rand.Rand, d, maxRun int, missFirst bool) []bool {
	mask := make([]bool, d)
	obs := !missFirst
	for i := 0; i < d; obs = !obs {
		for n := 1 + rng.IntN(maxRun); n > 0 && i < d; n-- {
			mask[i] = obs
			i++
		}
	}
	return mask
}

// TestPatchProjectMatchesPerBinFill holds the run-wise patch to the per-bin
// reference bit for bit — the patched row, ‖y‖², the coefficients and the
// filled copy — over masks with runs at both ends, single-bin runs, long
// runs and more than d/2 bins missing (the observed-side Gram).
func TestPatchProjectMatchesPerBinFill(t *testing.T) {
	rng := rand.New(rand.NewPCG(300, 3))
	for _, d := range []int{61, 1000} {
		m := newModel(rng, d, 3, []float64{9, 4, 1}, 0.05)
		cfg := testConfig(d, 3)
		cfg.Extra = 2
		en, _ := NewEngine(cfg)
		feedN(t, en, m, 600)
		bits := func(v []float64) []uint64 {
			out := make([]uint64, len(v))
			for i, f := range v {
				out[i] = math.Float64bits(f)
			}
			return out
		}
		for trial := 0; trial < 200; trial++ {
			x, _ := m.sample()
			var mask []bool
			switch trial % 4 {
			case 0: // single-bin runs throughout
				mask = runMask(rng, d, 1, trial%8 == 0)
			case 1: // heavy: most bins missing
				mask = randomMask(rng, d, 0.6+0.3*rng.Float64())
			case 2: // long runs, either end first
				mask = runMask(rng, d, 1+d/4, rng.IntN(2) == 0)
			default:
				mask = runMask(rng, d, 1+rng.IntN(12), rng.IntN(2) == 0)
			}
			if trial%5 == 0 { // a run at both ends
				mask[0], mask[d-1] = false, false
			}
			slot := trial % en.ws.yMat.Rows()
			wantNy2, wantMiss, wantErr := en.patchProjectPerBin(slot, x, mask)
			wantY, wantCoef, wantX := bits(en.ws.yMat.Row(slot)), bits(en.ws.coefs.Row(slot)), bits(en.ws.xPatch)
			ny2, nMiss, err := en.patchProject(slot, x, mask)
			if err != wantErr || nMiss != wantMiss {
				t.Fatalf("d=%d trial %d: (%d, %v), per-bin (%d, %v)", d, trial, nMiss, err, wantMiss, wantErr)
			}
			if err != nil {
				continue
			}
			if math.Float64bits(ny2) != math.Float64bits(wantNy2) ||
				!slices.Equal(bits(en.ws.yMat.Row(slot)), wantY) ||
				!slices.Equal(bits(en.ws.coefs.Row(slot)), wantCoef) ||
				!slices.Equal(bits(en.ws.xPatch), wantX) {
				t.Fatalf("d=%d trial %d (%d missing): run-wise patch differs from the per-bin fill", d, trial, nMiss)
			}
		}
	}
}
