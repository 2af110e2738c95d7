package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/stream"
)

func TestLocationEngineValidation(t *testing.T) {
	bad := []LocationConfig{
		{},
		{Dim: 5, Alpha: 2},
		{Dim: 5, Delta: 1.5},
		{Dim: 5, InitSize: 1},
	}
	for i, cfg := range bad {
		if _, err := NewLocationEngine(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := NewLocationEngine(LocationConfig{Dim: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestLocationEngineTracksMean(t *testing.T) {
	rng := rand.New(rand.NewPCG(970, 1))
	le, err := NewLocationEngine(LocationConfig{Dim: 10, Alpha: 1 - 1.0/500})
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, 10)
	for i := range truth {
		truth[i] = float64(i) - 4
	}
	for i := 0; i < 3000; i++ {
		x := mat.CopyVec(truth)
		for j := range x {
			x[j] += 0.5 * rng.NormFloat64()
		}
		if _, err := le.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	if !mat.EqualApproxVec(le.Mean(), truth, 0.1) {
		t.Fatalf("mean = %v", le.Mean())
	}
	if le.Sigma2() <= 0 {
		t.Fatal("sigma2 not estimated")
	}
}

func TestLocationEngineRobustToOutliers(t *testing.T) {
	rng := rand.New(rand.NewPCG(971, 2))
	le, _ := NewLocationEngine(LocationConfig{Dim: 8, Alpha: 1 - 1.0/500})
	var flagged, injected int
	for i := 0; i < 4000; i++ {
		x := make([]float64, 8)
		isOut := rng.Float64() < 0.15
		for j := range x {
			if isOut {
				x[j] = 100 * rng.NormFloat64()
			} else {
				x[j] = 3 + 0.3*rng.NormFloat64()
			}
		}
		if isOut {
			injected++
		}
		u, err := le.Observe(x)
		if err != nil {
			t.Fatal(err)
		}
		if u.Outlier && isOut {
			flagged++
		}
	}
	mean := le.Mean()
	for j := range mean {
		if math.Abs(mean[j]-3) > 0.3 {
			t.Fatalf("contaminated mean = %v", mean)
		}
	}
	if rate := float64(flagged) / float64(injected); rate < 0.9 {
		t.Fatalf("outlier detection rate = %v", rate)
	}
}

func TestLocationEngineMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(972, 3))
	mk := func(offset float64, n int) *LocationEngine {
		le, _ := NewLocationEngine(LocationConfig{Dim: 4})
		for i := 0; i < n; i++ {
			x := []float64{offset, offset, offset, offset}
			for j := range x {
				x[j] += 0.1 * rng.NormFloat64()
			}
			le.Observe(x)
		}
		return le
	}
	a := mk(0, 300)
	b := mk(1, 100)
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(sb); err != nil {
		t.Fatal(err)
	}
	// v-weighted average: ≈ 100/400 of the way toward 1.
	got := a.Mean()[0]
	if got < 0.15 || got > 0.35 {
		t.Fatalf("merged mean = %v, want ≈ 0.25", got)
	}
	if a.SinceSync() != 0 {
		t.Fatal("merge should reset SinceSync")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("nil merge should fail")
	}
}

func TestLocationEngineShouldSync(t *testing.T) {
	rng := rand.New(rand.NewPCG(973, 4))
	le, _ := NewLocationEngine(LocationConfig{Dim: 4, Alpha: 1 - 1.0/100})
	for i := 0; i < 20; i++ {
		le.Observe([]float64{rng.NormFloat64(), 1, 2, 3})
	}
	le.MarkSynced()
	for i := 0; i < 100; i++ {
		le.Observe([]float64{rng.NormFloat64(), 1, 2, 3})
	}
	if le.ShouldSync(1.5) {
		t.Fatal("100 < 150 should not sync")
	}
	for i := 0; i < 60; i++ {
		le.Observe([]float64{rng.NormFloat64(), 1, 2, 3})
	}
	if !le.ShouldSync(1.5) {
		t.Fatal("160 > 150 should sync")
	}
}

// TestMixedAnalyticsGraph wires a PCA engine AND a location engine into one
// stream graph fed by the same split — the paper's claim that the
// parallelization framework hosts any partial-sum analytic.
func TestMixedAnalyticsGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(974, 5))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	xs := m.samples(4000)

	pca, err := NewEngine(Config{Dim: 20, Components: 2, Alpha: 1 - 1.0/500})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := NewLocationEngine(LocationConfig{Dim: 20, Alpha: 1 - 1.0/500})
	if err != nil {
		t.Fatal(err)
	}

	g := stream.NewGraph()
	i := 0
	src := g.AddSource("src", stream.CounterSource(int64(len(xs)), func(seq int64) stream.Message {
		x := xs[seq]
		i++
		return stream.Frame{Seq: seq, Tuples: []stream.Tuple{{Seq: seq, Vec: x}}}
	}))
	fan := g.Add("fan", &stream.FuncOperator{
		OnMessage: func(_ int, msg stream.Message, emit stream.Emit) {
			emit(0, msg)
			emit(1, msg)
		},
	})
	pcaOp := g.Add("pca", &stream.FuncOperator{
		OnMessage: func(_ int, msg stream.Message, _ stream.Emit) {
			pca.Observe(msg.(stream.Frame).Tuples[0].Vec)
		},
	})
	locOp := g.Add("loc", &stream.FuncOperator{
		OnMessage: func(_ int, msg stream.Message, _ stream.Emit) {
			loc.Observe(msg.(stream.Frame).Tuples[0].Vec)
		},
	})
	for _, e := range [][3]stream.NodeID{{src, fan, 0}, {fan, pcaOp, 0}} {
		if err := g.Connect(e[0], 0, e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect(fan, 1, locOp, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if aff := pca.Eigensystem().SubspaceAffinity(m.basis); aff < 0.95 {
		t.Fatalf("pca affinity = %v", aff)
	}
	if !mat.EqualApproxVec(loc.Mean(), m.mean, 0.2) {
		t.Fatal("location analytic did not track the mean")
	}
}

func TestLocationEngineAccessorsBeforeReady(t *testing.T) {
	le, _ := NewLocationEngine(LocationConfig{Dim: 4})
	if le.Ready() {
		t.Fatal("fresh engine should not be ready")
	}
	if le.Mean() != nil {
		t.Fatal("Mean before ready should be nil")
	}
	if _, err := le.Snapshot(); err == nil {
		t.Fatal("Snapshot before ready should fail")
	}
	if le.ShouldSync(1.5) {
		t.Fatal("unready engine should not sync")
	}
	le.Observe([]float64{1, 2, 3, 4})
	if le.Count() != 1 {
		t.Fatalf("Count = %d", le.Count())
	}
	if _, err := le.Observe([]float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := le.Observe([]float64{1, 2, math.NaN(), 4}); err == nil {
		t.Fatal("NaN should error")
	}
}

func TestLocationEngineInfiniteMemorySyncAlways(t *testing.T) {
	rng := rand.New(rand.NewPCG(975, 6))
	le, _ := NewLocationEngine(LocationConfig{Dim: 3}) // alpha = 1
	for i := 0; i < 20; i++ {
		le.Observe([]float64{rng.NormFloat64(), 1, 2})
	}
	if !le.ShouldSync(1.5) {
		t.Fatal("alpha=1 location engines may always sync")
	}
}

func TestPatchVectorBeforeReadyFails(t *testing.T) {
	en, _ := NewEngine(Config{Dim: 5, Components: 1})
	if _, _, err := en.PatchVector(make([]float64, 5), make([]bool, 5)); err == nil {
		t.Fatal("PatchVector before warm-up should fail")
	}
}
