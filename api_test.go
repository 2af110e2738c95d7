package streampca_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"streampca"
)

// TestPublicAPIEndToEnd exercises the whole facade the way the quickstart
// example does: generate spectra, run the estimator, check convergence.
func TestPublicAPIEndToEnd(t *testing.T) {
	gen, err := streampca.NewSpectraGenerator(streampca.SpectraConfig{
		Grid: streampca.SDSSGrid(200), Rank: 3, Seed: 1, OutlierRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	en, err := streampca.NewEngine(streampca.Config{
		Dim: 200, Components: 3, Alpha: 1 - 1.0/2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var outliers int
	for i := 0; i < 8000; i++ {
		obs := gen.Next()
		u, err := en.Observe(obs.Flux)
		if err != nil {
			t.Fatal(err)
		}
		if u.Outlier {
			outliers++
		}
	}
	es, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if aff := es.SubspaceAffinity(gen.TrueBasis()); aff < 0.95 {
		t.Fatalf("affinity = %v", aff)
	}
	if outliers == 0 {
		t.Fatal("no outliers flagged")
	}
}

func TestPublicPipeline(t *testing.T) {
	gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: 30, Signals: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	res, err := streampca.RunPipeline(context.Background(), streampca.PipelineConfig{
		Engine:       streampca.Config{Dim: 30, Components: 2, Alpha: 1 - 1.0/300},
		NumEngines:   3,
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: streampca.SyncRing,
		Source: func() ([]float64, []bool, bool) {
			if n >= 6000 {
				return nil, nil, false
			}
			n++
			x, _ := gen.Next()
			return x, nil, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == nil {
		t.Fatal("no merged system")
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.85 {
		t.Fatalf("pipeline affinity = %v", aff)
	}
}

func TestPublicBaselinesAndMerge(t *testing.T) {
	gen, _ := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: 25, Signals: 2, Seed: 3, OutlierRate: 0.1})
	xs := make([][]float64, 2000)
	for i := range xs {
		xs[i], _ = gen.Next()
	}
	classic, err := streampca.BatchPCA(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rob, err := streampca.BatchRobustPCA(xs, 2, streampca.DefaultBisquare(), 0.5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rob.Sigma2 >= classic.Sigma2 {
		t.Fatal("robust scale should be below contaminated classical scale")
	}
	vals, err := streampca.RobustEigenvalues(gen.TrueBasis(), make([]float64, 25), xs,
		streampca.DefaultBisquare(), 0.5)
	if err != nil || len(vals) != 2 {
		t.Fatalf("RobustEigenvalues: %v %v", vals, err)
	}
}

func TestPublicClusterSim(t *testing.T) {
	st, err := streampca.SimulateCluster(streampca.ClusterConfig{
		Engines: 10, Duration: 5, Warmup: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	if streampca.DefaultClusterSpec().Nodes != 10 {
		t.Fatal("default spec wrong")
	}
	if streampca.DefaultClusterWorkload().Dim != 250 {
		t.Fatal("default workload wrong")
	}
}

func TestPublicHelpers(t *testing.T) {
	if c := streampca.TuneBisquare(0.5); c < 1.5 || c > 1.6 {
		t.Fatalf("TuneBisquare = %v", c)
	}
	s2, err := streampca.MScale(streampca.DefaultBisquare(), []float64{1, 1.2, 0.9, 1.1}, 0.5, 0)
	if err != nil || s2 <= 0 {
		t.Fatalf("MScale: %v %v", s2, err)
	}
	if len(streampca.LineCatalog()) < 10 {
		t.Fatal("line catalog too small")
	}
	flux := []float64{1, 2, 3}
	if _, err := streampca.Normalize(flux, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublicFusionAndMetrics(t *testing.T) {
	gen, _ := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: 20, Signals: 2, Seed: 40})
	var n int
	res, err := streampca.RunPipeline(context.Background(), streampca.PipelineConfig{
		Engine:     streampca.Config{Dim: 20, Components: 2, Alpha: 1 - 1.0/300},
		NumEngines: 3,
		Source: func() ([]float64, []bool, bool) {
			if n >= 3000 {
				return nil, nil, false
			}
			n++
			x, _ := gen.Next()
			return x, nil, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every engine has its own profile row; together they absorbed the
	// whole stream, and no queue is live once the run has returned.
	var engines int
	var tuples int64
	for _, m := range res.Metrics {
		if m.Busy < 0 || m.QueueLen != 0 || m.Dropped != 0 {
			t.Fatalf("bad profile row %+v", m)
		}
		if strings.HasPrefix(m.Name, "pca") {
			engines++
			tuples += m.TuplesIn
			if m.TuplesIn == 0 || m.Busy == 0 {
				t.Fatalf("idle engine %+v", m)
			}
		}
	}
	if engines != 3 || tuples != 3000 {
		t.Fatalf("engine rows = %d absorbing %d tuples, want 3 and 3000", engines, tuples)
	}
}
