package core

import (
	"math"
	"math/rand/v2"
	"testing"

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
