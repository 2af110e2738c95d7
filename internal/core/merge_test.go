package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"streampca/internal/eig"
	"streampca/internal/mat"
)

func TestMergeTwoEnginesMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(200, 1))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.05)
	mk := func() *Engine {
		en, err := NewEngine(testConfig(30, 2))
		if err != nil {
			t.Fatal(err)
		}
		return en
	}
	a, b := mk(), mk()
	// Interleave the same stream across two engines (random split).
	for i := 0; i < 6000; i++ {
		x, _ := m.sample()
		var err error
		if rng.Float64() < 0.5 {
			_, err = a.Observe(x)
		} else {
			_, err = b.Observe(x)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	snapB, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeSnapshot(snapB); err != nil {
		t.Fatal(err)
	}
	if aff := a.Eigensystem().SubspaceAffinity(m.basis); aff < 0.97 {
		t.Fatalf("merged affinity = %v", aff)
	}
	if !a.Eigensystem().checkFinite() {
		t.Fatal("merge produced non-finite state")
	}
	if a.SinceSync() != 0 {
		t.Fatal("merge should reset SinceSync")
	}
}

func TestMergeMeanIsWeightedAverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(201, 2))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	a, _ := NewEngine(testConfig(20, 2))
	b, _ := NewEngine(testConfig(20, 2))
	feedN(t, a, m, 400)
	feedN(t, b, m, 400)
	sa, _ := a.Snapshot()
	sb, _ := b.Snapshot()
	g1 := sa.SumV / (sa.SumV + sb.SumV)
	want := mat.Lerp(make([]float64, 20), g1, sa.Mean, 1-g1, sb.Mean)
	if err := a.MergeSnapshot(sb); err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApproxVec(a.Eigensystem().Mean, want, 1e-12) {
		t.Fatal("merged mean is not the v-weighted average")
	}
}

func TestMergeWeightsFavorHeavierSystem(t *testing.T) {
	// Engine A sees 10x the data of B drawn from a different subspace; the
	// merge should stay close to A's subspace.
	rng := rand.New(rand.NewPCG(202, 3))
	mA := newModel(rng, 25, 2, []float64{4, 1}, 0.05)
	mB := newModel(rng, 25, 2, []float64{4, 1}, 0.05)
	cfg := Config{Dim: 25, Components: 2, Alpha: 1 - 1.0/5000}
	a, _ := NewEngine(cfg)
	b, _ := NewEngine(cfg)
	feedN(t, a, mA, 5000)
	feedN(t, b, mB, 100)
	sb, _ := b.Snapshot()
	if err := a.MergeSnapshot(sb); err != nil {
		t.Fatal(err)
	}
	affA := a.Eigensystem().SubspaceAffinity(mA.basis)
	affB := a.Eigensystem().SubspaceAffinity(mB.basis)
	if affA < 0.8 || affA <= affB {
		t.Fatalf("merge ignored weights: affA=%v affB=%v", affA, affB)
	}
}

func TestMergeExactCapturesMeanShift(t *testing.T) {
	// Two populations with well-separated means: the pooled covariance must
	// contain the mean-difference direction, which only the exact merge
	// (eq. 15) captures.
	rng := rand.New(rand.NewPCG(203, 4))
	d := 20
	shift := make([]float64, d)
	shift[0] = 10 // separation along e0
	m1 := newModel(rng, d, 2, []float64{1, 0.5}, 0.05)
	m2 := newModel(rng, d, 2, []float64{1, 0.5}, 0.05)
	copy(m2.mean, m1.mean)
	mat.Axpy(1, shift, m2.mean)

	cfg := testConfig(d, 2)
	a, _ := NewEngine(cfg)
	b, _ := NewEngine(cfg)
	feedN(t, a, m1, 2000)
	feedN(t, b, m2, 2000)
	sb, _ := b.Snapshot()

	exact := a
	if err := exact.MergeSnapshot(sb); err != nil {
		t.Fatal(err)
	}
	es := exact.Eigensystem()
	// Top eigenvector should align with the shift direction e0.
	top := es.Component(0)
	if c := math.Abs(top[0]); c < 0.9 {
		t.Fatalf("exact merge missed mean-shift direction: |e0·v1| = %v", c)
	}
}

func TestMergeApproxIgnoresMeanShift(t *testing.T) {
	rng := rand.New(rand.NewPCG(204, 5))
	d := 20
	m1 := newModel(rng, d, 2, []float64{1, 0.5}, 0.05)
	m2 := newModel(rng, d, 2, []float64{1, 0.5}, 0.05)
	copy(m2.basis.Data(), m1.basis.Data())
	copy(m2.mean, m1.mean)
	m2.mean[0] += 10

	cfg := testConfig(d, 2)
	a, _ := NewEngine(cfg)
	b, _ := NewEngine(cfg)
	feedN(t, a, m1, 2000)
	feedN(t, b, m2, 2000)
	sb, _ := b.Snapshot()
	if err := a.MergeApprox(sb); err != nil {
		t.Fatal(err)
	}
	// The shared true basis should still dominate: approx merge keeps the
	// component subspaces and ignores the mean gap.
	if aff := a.Eigensystem().SubspaceAffinity(m1.basis); aff < 0.9 {
		t.Fatalf("approx merge broke shared subspace: %v", aff)
	}
}

func TestMergeApproxAgreesWithExactWhenMeansMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(205, 6))
	m := newModel(rng, 25, 3, []float64{9, 4, 1}, 0.05)
	cfg := testConfig(25, 3)
	a1, _ := NewEngine(cfg)
	b, _ := NewEngine(cfg)
	feedN(t, a1, m, 2000)
	feedN(t, b, m, 2000)
	// a2 replays a1's state.
	s1, _ := a1.Snapshot()
	a2, err := ResumeEngine(cfg, s1)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := b.Snapshot()
	if err := a1.MergeSnapshot(sb); err != nil {
		t.Fatal(err)
	}
	if err := a2.MergeApprox(sb); err != nil {
		t.Fatal(err)
	}
	v1, v2 := a1.Eigensystem().Values, a2.Eigensystem().Values
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 0.05*(v1[i]+1e-12) {
			t.Fatalf("eigenvalues diverge between exact and approx: %v vs %v", v1, v2)
		}
	}
}

func TestMergeErrorCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(206, 7))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	a, _ := NewEngine(testConfig(20, 2))
	if err := a.MergeSnapshot(&Eigensystem{}); err == nil {
		t.Fatal("merge into unready engine should fail")
	}
	feedN(t, a, m, 200)
	snap, _ := a.Snapshot()

	small := newModel(rng, 10, 2, []float64{4, 1}, 0.05)
	b, _ := NewEngine(testConfig(10, 2))
	feedN(t, b, small, 200)
	sb, _ := b.Snapshot()
	if err := a.MergeSnapshot(sb); err == nil {
		t.Fatal("dimension mismatch should fail")
	}

	bad := snap.Clone()
	bad.Values[0] = math.NaN()
	if err := a.MergeSnapshot(bad); err == nil {
		t.Fatal("non-finite snapshot should be rejected")
	}

	// Finite peer vectors whose Gram overflows make the eigensolve fail: the
	// merge must report it and leave the engine as it was.
	huge := snap.Clone()
	huge.Vectors.ScaleAll(1e200)
	before, since := a.Eigensystem().Clone(), a.SinceSync()
	if err := a.MergeSnapshot(huge); err != errMergeSolve {
		t.Fatalf("merge with a failing eigensolve returned %v", err)
	}
	after := a.Eigensystem()
	if !slices.Equal(after.Mean, before.Mean) || !slices.Equal(after.Values, before.Values) ||
		!slices.Equal(after.Vectors.Data(), before.Vectors.Data()) || after.Sigma2 != before.Sigma2 ||
		after.SumU != before.SumU || after.SumV != before.SumV || after.SumQ != before.SumQ ||
		after.Count != before.Count || a.SinceSync() != since {
		t.Fatal("failed merge changed the engine state")
	}

	zero := snap.Clone()
	zero.SumV = 0
	a.state.SumV = 0
	if err := a.MergeSnapshot(zero); err == nil {
		t.Fatal("zero total weight should fail")
	}
}

func TestMergeManyMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(207, 8))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	var snaps []*Eigensystem
	for i := 0; i < 4; i++ {
		en, _ := NewEngine(testConfig(20, 2))
		feedN(t, en, m, 1000)
		s, _ := en.Snapshot()
		snaps = append(snaps, s)
	}
	merged, err := MergeMany(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if aff := merged.SubspaceAffinity(m.basis); aff < 0.97 {
		t.Fatalf("MergeMany affinity = %v", aff)
	}
	wantCount := int64(0)
	for _, s := range snaps {
		wantCount += s.Count
	}
	if merged.Count != wantCount {
		t.Fatalf("Count = %d, want %d", merged.Count, wantCount)
	}
	if _, err := MergeMany(nil); err == nil {
		t.Fatal("empty MergeMany should fail")
	}
}

func TestMergeAccumulatesSums(t *testing.T) {
	rng := rand.New(rand.NewPCG(208, 9))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	a, _ := NewEngine(Config{Dim: 20, Components: 2}) // alpha = 1
	b, _ := NewEngine(Config{Dim: 20, Components: 2})
	feedN(t, a, m, 300)
	feedN(t, b, m, 500)
	sa, _ := a.Snapshot()
	sb, _ := b.Snapshot()
	if err := a.MergeSnapshot(sb); err != nil {
		t.Fatal(err)
	}
	es := a.Eigensystem()
	if math.Abs(es.SumU-(sa.SumU+sb.SumU)) > 1e-9 {
		t.Fatalf("SumU = %v, want %v", es.SumU, sa.SumU+sb.SumU)
	}
	if es.Count != 800 {
		t.Fatalf("Count = %d", es.Count)
	}
}

// denseMerge is the dense route of eqs. (15)/(16) that the engine's merge
// replaced, kept as its oracle: it materializes the d×(2k+1) stacked
// A = [E₁·√(γ₁Λ₁) | E₂·√(γ₂Λ₂) | √(γ₁γ₂)(µ₁−µ₂)] (d×2k without the mean
// difference when not exact), takes the top k of eig.ThinSVD(A), and merges
// the scalars as the engine does. st is not modified.
func denseMerge(t *testing.T, st, o *Eigensystem, exact bool) *Eigensystem {
	t.Helper()
	st = st.Clone()
	g1 := st.SumV / (st.SumV + o.SumV)
	g2 := o.SumV / (st.SumV + o.SumV)
	d, k := st.Dim(), st.NumComponents()
	cols := 2 * k
	if exact {
		cols++
	}
	a := mat.NewDense(d, cols)
	for j := 0; j < k; j++ {
		s1, s2 := math.Sqrt(g1*max(st.Values[j], 0)), math.Sqrt(g2*max(o.Values[j], 0))
		for i := 0; i < d; i++ {
			a.Set(i, j, s1*st.Vectors.At(i, j))
			a.Set(i, k+j, s2*o.Vectors.At(i, j))
		}
	}
	if exact {
		sd := math.Sqrt(g1 * g2)
		for i := 0; i < d; i++ {
			a.Set(i, 2*k, sd*(st.Mean[i]-o.Mean[i]))
		}
	}
	dec, ok := eig.ThinSVD(a)
	if !ok {
		t.Fatal("oracle SVD failed")
	}
	mat.Lerp(st.Mean, g1, st.Mean, g2, o.Mean)
	for j := 0; j < k; j++ {
		st.Values[j] = dec.S[j] * dec.S[j]
		st.Vectors.SetCol(j, dec.U.Col(j, nil))
	}
	st.Sigma2 = g1*st.Sigma2 + g2*o.Sigma2
	st.SumU += o.SumU
	st.SumV += o.SumV
	st.SumQ += o.SumQ
	st.Count += o.Count
	return st
}

// checkAgainstOracle holds a merged eigensystem to denseMerge's: eigenvalues
// within 1e-10 relative, the largest principal angle within 1e-8, and the
// mean, σ², running sums and Count equal.
func checkAgainstOracle(t *testing.T, name string, got, want *Eigensystem) {
	t.Helper()
	worst := 0.0
	for j, w := range want.Values {
		worst = max(worst, math.Abs(got.Values[j]-w)/w)
	}
	angle := maxPrincipalSine(want.Vectors, got.Vectors)
	t.Logf("%s: eigenvalues %.1e relative, largest angle %.1e", name, worst, angle)
	if worst > 1e-10 || angle > 1e-8 {
		t.Errorf("%s: eigenvalues %.2e relative, angle %.2e from the dense merge", name, worst, angle)
	}
	if !slices.Equal(got.Mean, want.Mean) || got.Sigma2 != want.Sigma2 || got.SumU != want.SumU ||
		got.SumV != want.SumV || got.SumQ != want.SumQ || got.Count != want.Count {
		t.Errorf("%s: mean, σ², running sums or Count differ from the dense merge", name)
	}
}

// TestMergeMatchesDenseOracle holds MergeSnapshot and MergeApprox to the dense
// eq. (15)/(16) merge for two engines on a shared basis whose means lie 0, 1,
// 2, 5 and 10 leading standard deviations apart, and MergeMany to the dense
// merge folded left to right over four engines.
func TestMergeMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(209, 10))
	d := 60
	m1 := newModel(rng, d, 3, []float64{9, 4, 1}, 0.05)
	m2 := newModel(rng, d, 3, []float64{9, 4, 1}, 0.05)
	copy(m2.basis.Data(), m1.basis.Data())
	dir := make([]float64, d)
	for i := range dir {
		dir[i] = rng.NormFloat64()
	}
	mat.Normalize(dir)
	cfg := Config{Dim: d, Components: 3, Extra: 1, Alpha: 1 - 1.0/1000}
	for _, sep := range []float64{0, 1, 2, 5, 10} {
		mat.Lerp(m2.mean, 1, m1.mean, 3*sep, dir)
		a, _ := NewEngine(cfg)
		b, _ := NewEngine(cfg)
		feedN(t, a, m1, 1500)
		feedN(t, b, m2, 1500)
		sa, _ := a.Snapshot()
		sb, _ := b.Snapshot()
		for _, exact := range []bool{true, false} {
			en, err := ResumeEngine(cfg, sa)
			if err != nil {
				t.Fatal(err)
			}
			merge := en.MergeApprox
			if exact {
				merge = en.MergeSnapshot
			}
			if err := merge(sb); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("separation %gσ exact=%v", sep, exact)
			checkAgainstOracle(t, name, en.Eigensystem(), denseMerge(t, sa, sb, exact))
		}
	}

	var snaps []*Eigensystem
	for i := 0; i < 4; i++ {
		en, _ := NewEngine(cfg)
		feedN(t, en, m1, 800+200*i)
		s, _ := en.Snapshot()
		snaps = append(snaps, s)
	}
	got, err := MergeMany(snaps)
	if err != nil {
		t.Fatal(err)
	}
	want := snaps[0]
	for _, s := range snaps[1:] {
		want = denseMerge(t, want, s, true)
	}
	checkAgainstOracle(t, "MergeMany", got, want)
}

// TestMergeZeroAllocs asserts that MergeSnapshot and MergeApprox run in the
// engine's workspace without allocating.
func TestMergeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(210, 11))
	m := newModel(rng, 80, 3, []float64{9, 4, 1}, 0.05)
	a, _ := NewEngine(testConfig(80, 3))
	b, _ := NewEngine(testConfig(80, 3))
	feedN(t, a, m, 300)
	feedN(t, b, m, 300)
	snap, _ := b.Snapshot()
	for name, merge := range map[string]func(*Eigensystem) error{"MergeSnapshot": a.MergeSnapshot, "MergeApprox": a.MergeApprox} {
		if allocs := testing.AllocsPerRun(50, func() {
			if err := merge(snap); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocated %v times per merge", name, allocs)
		}
	}
}
