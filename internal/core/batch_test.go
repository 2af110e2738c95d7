package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/robust"
)

func TestBatchPCARecoversModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(400, 1))
	m := newModel(rng, 30, 3, []float64{9, 4, 1}, 0.05)
	xs := m.samples(5000)
	res, err := BatchPCA(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if aff := colAffinity(m.basis, res.Vectors); aff < 0.99 {
		t.Fatalf("batch affinity = %v", aff)
	}
	for j, want := range []float64{9, 4, 1} {
		if math.Abs(res.Values[j]-want)/want > 0.15 {
			t.Fatalf("lambda[%d] = %v, want ≈ %v", j, res.Values[j], want)
		}
	}
	if !mat.EqualApproxVec(res.Mean, m.mean, 0.1) {
		t.Fatal("batch mean off")
	}
	if res.Sigma2 <= 0 {
		t.Fatal("batch sigma2 should be positive")
	}
}

func TestBatchPCAErrors(t *testing.T) {
	if _, err := BatchPCA(nil, 1); err == nil {
		t.Fatal("empty input should error")
	}
	xs := [][]float64{{1, 2}, {3, 4}}
	if _, err := BatchPCA(xs, 0); err == nil {
		t.Fatal("p=0 should error")
	}
	if _, err := BatchPCA(xs, 3); err == nil {
		t.Fatal("p>d should error")
	}
	if _, err := BatchPCA([][]float64{{1, 2}, {3}}, 1); err == nil {
		t.Fatal("ragged input should error")
	}
}

func TestBatchRobustPCAUnderContamination(t *testing.T) {
	rng := rand.New(rand.NewPCG(401, 2))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.05)
	m.outlier = 0.15
	xs := m.samples(3000)

	classic, err := BatchPCA(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rob, err := BatchRobustPCA(xs, 2, robust.DefaultBisquare(), 0.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	affC := colAffinity(m.basis, classic.Vectors)
	affR := colAffinity(m.basis, rob.Vectors)
	if affR < 0.97 {
		t.Fatalf("robust batch affinity = %v", affR)
	}
	if affC > affR {
		t.Fatalf("classic (%v) should not beat robust (%v) under contamination", affC, affR)
	}
	if rob.Iterations < 2 {
		t.Fatalf("robust batch should iterate, got %d", rob.Iterations)
	}
	// Robust scale should be near the clean residual scale, far below the
	// contaminated classical one.
	if rob.Sigma2 > classic.Sigma2/10 {
		t.Fatalf("robust sigma2 %v vs classic %v", rob.Sigma2, classic.Sigma2)
	}
}

func TestBatchRobustMatchesBatchOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewPCG(402, 3))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	xs := m.samples(2000)
	classic, err := BatchPCA(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rob, err := BatchRobustPCA(xs, 2, robust.DefaultBisquare(), 0.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if aff := colAffinity(classic.Vectors, rob.Vectors); aff < 0.999 {
		t.Fatalf("clean-data subspaces should agree: %v", aff)
	}
}

func TestStreamingConvergesToBatchRobust(t *testing.T) {
	// The streaming robust estimator should land near the offline Maronna
	// solution on the same distribution.
	rng := rand.New(rand.NewPCG(403, 4))
	m := newModel(rng, 25, 2, []float64{4, 1}, 0.05)
	m.outlier = 0.08
	xs := m.samples(6000)

	rob, err := BatchRobustPCA(xs, 2, robust.DefaultBisquare(), 0.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	en, _ := NewEngine(testConfig(25, 2))
	for _, x := range xs {
		if _, err := en.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	if aff := colAffinity(rob.Vectors, en.Eigensystem().Vectors.SliceCols(0, 2)); aff < 0.95 {
		t.Fatalf("streaming vs batch-robust affinity = %v", aff)
	}
}

func TestRobustEigenvaluesOnTrueBasis(t *testing.T) {
	rng := rand.New(rand.NewPCG(404, 5))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.02)
	xs := m.samples(5000)
	vals, err := RobustEigenvalues(m.basis, m.mean, xs, robust.DefaultBisquare(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{4, 1} {
		if math.Abs(vals[j]-want)/want > 0.2 {
			t.Fatalf("robust lambda[%d] = %v, want ≈ %v", j, vals[j], want)
		}
	}
}

func TestRobustEigenvaluesIgnoreOutliers(t *testing.T) {
	rng := rand.New(rand.NewPCG(405, 6))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.02)
	clean := m.samples(4000)
	m.outlier = 0.2
	dirty := m.samples(4000)
	vc, err := RobustEigenvalues(m.basis, m.mean, clean, robust.DefaultBisquare(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := RobustEigenvalues(m.basis, m.mean, dirty, robust.DefaultBisquare(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range vc {
		if vd[j] > 3*vc[j] {
			t.Fatalf("robust eigenvalue %d exploded under contamination: %v vs %v", j, vd[j], vc[j])
		}
	}
}

func TestRobustEigenvaluesErrors(t *testing.T) {
	basis := mat.NewDense(5, 2)
	if _, err := RobustEigenvalues(basis, make([]float64, 5), nil, robust.DefaultBisquare(), 0.5); err == nil {
		t.Fatal("no data should error")
	}
	if _, err := RobustEigenvalues(basis, make([]float64, 4), [][]float64{make([]float64, 5)}, robust.DefaultBisquare(), 0.5); err == nil {
		t.Fatal("mean mismatch should error")
	}
	if _, err := RobustEigenvalues(basis, make([]float64, 5), [][]float64{make([]float64, 4)}, robust.DefaultBisquare(), 0.5); err == nil {
		t.Fatal("obs mismatch should error")
	}
}

func BenchmarkBatchRobustPCA(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	m := newModel(rng, 50, 3, []float64{9, 4, 1}, 0.05)
	m.outlier = 0.05
	xs := m.samples(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BatchRobustPCA(xs, 3, robust.DefaultBisquare(), 0.5, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// colAffinity is affinity for bases stored as columns (d×k), the layout of
// Eigensystem.Vectors and BatchResult.Vectors.
func colAffinity(a, b *mat.Dense) float64 { return affinity(a.T(), b.T()) }
