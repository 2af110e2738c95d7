package pipeline

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/spectra"
	"streampca/internal/syncctl"
)

// signalSource adapts a SignalGenerator to a pipeline Source emitting n
// tuples.
func signalSource(gen *spectra.SignalGenerator, n int64) Source {
	var i int64
	return func() ([]float64, []bool, bool) {
		if i >= n {
			return nil, nil, false
		}
		i++
		x, _ := gen.Next()
		return x, nil, true
	}
}

func spectraSource(gen *spectra.Generator, n int64) Source {
	var i int64
	return func() ([]float64, []bool, bool) {
		if i >= n {
			return nil, nil, false
		}
		i++
		obs := gen.Next()
		return obs.Flux, obs.Mask, true
	}
}

func engineConfig(d, p int, window float64) core.Config {
	return core.Config{Dim: d, Components: p, Alpha: 1 - 1/window}
}

func TestSingleEnginePipeline(t *testing.T) {
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(40, 3, 500),
		NumEngines: 1,
		Source:     signalSource(gen, 4000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != 4000 {
		t.Fatalf("TuplesIn = %d", res.TuplesIn)
	}
	if res.Engines[0].Processed != 4000 {
		t.Fatalf("Processed = %d", res.Engines[0].Processed)
	}
	if res.Merged == nil {
		t.Fatal("no merged eigensystem")
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.95 {
		t.Fatalf("affinity = %v", aff)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestParallelPipelineWithRingSync(t *testing.T) {
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Engine:       engineConfig(40, 3, 300),
		NumEngines:   4,
		Source:       signalSource(gen, 20000),
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var processed, syncsSent, merges int64
	for _, st := range res.Engines {
		processed += st.Processed
		syncsSent += st.SnapshotsSent
		merges += st.MergesApplied
		if st.Final == nil {
			t.Fatalf("engine %d never initialized", st.Engine)
		}
	}
	if processed != 20000 {
		t.Fatalf("processed %d/20000", processed)
	}
	if syncsSent == 0 {
		t.Fatal("no synchronizations happened")
	}
	if merges == 0 {
		t.Fatal("no merges applied")
	}
	// Every engine individually, plus the merged system, should have found
	// the planted subspace.
	truth := gen.TrueBasis()
	if aff := res.Merged.SubspaceAffinity(truth); aff < 0.9 {
		t.Fatalf("merged affinity = %v", aff)
	}
	for _, st := range res.Engines {
		if aff := st.Final.SubspaceAffinity(truth); aff < 0.8 {
			t.Fatalf("engine %d affinity = %v", st.Engine, aff)
		}
	}
}

func TestParallelPipelineNoSync(t *testing.T) {
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 30, Signals: 2, Seed: 3})
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(30, 2, 300),
		NumEngines: 3,
		Source:     signalSource(gen, 9000),
		Seed:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Engines {
		if st.SnapshotsSent != 0 || st.MergesApplied != 0 {
			t.Fatal("sync disabled but snapshots moved")
		}
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.9 {
		t.Fatalf("merged affinity = %v", aff)
	}
}

func TestBroadcastSyncStrategy(t *testing.T) {
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 30, Signals: 2, Seed: 4})
	res, err := Run(context.Background(), Config{
		Engine:       engineConfig(30, 2, 200),
		NumEngines:   3,
		Source:       signalSource(gen, 12000),
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Broadcast,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var merges int64
	for _, st := range res.Engines {
		merges += st.MergesApplied
	}
	if merges == 0 {
		t.Fatal("broadcast produced no merges")
	}
}

func TestPipelineWithOutliersAndRoundRobin(t *testing.T) {
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{
		Dim: 30, Signals: 2, Seed: 5, OutlierRate: 0.08,
	})
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(30, 2, 400),
		NumEngines: 2,
		Source:     signalSource(gen, 10000),
	})
	if err != nil {
		t.Fatal(err)
	}
	var outliers, processed int64
	for _, st := range res.Engines {
		outliers += st.Outliers
		processed += st.Processed
	}
	// ≈ 8% injected; detection should flag a comparable count.
	if outliers < 400 || outliers > 1600 {
		t.Fatalf("outliers flagged = %d, expected ≈ 800", outliers)
	}
	// The split loses no row: every tuple, outlier or not, is absorbed.
	if processed != 10000 {
		t.Fatalf("engines processed %d rows, want 10000", processed)
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.9 {
		t.Fatalf("affinity under contamination = %v", aff)
	}
}

func TestPipelineGappySpectra(t *testing.T) {
	gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
		Grid: spectra.SDSSGrid(120), Rank: 3, Seed: 6, GapRate: 0.3, NoiseSigma: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig(120, 3, 500)
	cfg.Extra = 2
	res, err := Run(context.Background(), Config{
		Engine:     cfg,
		NumEngines: 2,
		Source:     spectraSource(gen, 8000),
		SyncEvery:  3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.85 {
		t.Fatalf("gappy spectra affinity = %v", aff)
	}
}

func TestPipelineConfigErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("missing source should error")
	}
	src := func() ([]float64, []bool, bool) { return nil, nil, false }
	if _, err := Run(context.Background(), Config{
		Source: src,
		Engine: core.Config{Dim: -1, Components: 1},
	}); err == nil {
		t.Fatal("bad engine config should error")
	}
}

func TestPipelineOuterCancel(t *testing.T) {
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 20, Signals: 2, Seed: 8})
	var mu sync.Mutex
	endless := func() ([]float64, []bool, bool) {
		mu.Lock()
		defer mu.Unlock()
		x, _ := gen.Next()
		return x, nil, true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{
		Engine:     engineConfig(20, 2, 300),
		NumEngines: 2,
		Source:     endless,
	})
	if err == nil {
		t.Fatal("cancelled endless run should surface the context error")
	}
}

func TestMetricsExposeAnalysisGraph(t *testing.T) {
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 20, Signals: 2, Seed: 9})
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(20, 2, 300),
		NumEngines: 2,
		Source:     signalSource(gen, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The split runs inside the source, so the graph is exactly Figure 2's
	// source, engines and sink: no pass-through node between them.
	var names []string
	var sourceOut int64
	for _, m := range res.Metrics {
		names = append(names, m.Name)
		if m.Name == "source" {
			sourceOut = m.Out
		}
	}
	slices.Sort(names)
	if want := []string{"pca0", "pca1", "sink", "source"}; !slices.Equal(names, want) {
		t.Fatalf("graph nodes = %v, want %v", names, want)
	}
	if sourceOut != 2000 {
		t.Fatalf("source emitted %d", sourceOut)
	}
}

func TestSyncImprovesWorstEngine(t *testing.T) {
	// With a short stream per engine, the unsynchronized worst engine
	// should trail the synchronized one. Uses the same seed for both runs.
	run := func(sync bool) float64 {
		gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 10})
		cfg := Config{
			Engine:     engineConfig(40, 3, 200),
			NumEngines: 4,
			Source:     signalSource(gen, 8000),
			Seed:       11,
		}
		if sync {
			cfg.SyncEvery = time.Millisecond
			cfg.SyncStrategy = syncctl.Broadcast
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		worst := math.Inf(1)
		truth := gen.TrueBasis()
		for _, st := range res.Engines {
			if st.Final == nil {
				return 0
			}
			if a := st.Final.SubspaceAffinity(truth); a < worst {
				worst = a
			}
		}
		return worst
	}
	withSync := run(true)
	if withSync < 0.7 {
		t.Fatalf("worst synced engine affinity = %v", withSync)
	}
}

func TestPipelineSkipsMalformedTuples(t *testing.T) {
	// Wrong-length and NaN-only vectors must be dropped by the engines
	// without derailing the run.
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 20, Signals: 2, Seed: 50})
	var n int
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(20, 2, 300),
		NumEngines: 2,
		Source: func() ([]float64, []bool, bool) {
			if n >= 4000 {
				return nil, nil, false
			}
			n++
			switch n % 10 {
			case 0:
				return make([]float64, 7), nil, true // wrong length
			case 5:
				bad := make([]float64, 20)
				for i := range bad {
					bad[i] = math.NaN()
				}
				return bad, nil, true // entirely missing
			default:
				x, _ := gen.Next()
				return x, nil, true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var processed int64
	for _, st := range res.Engines {
		processed += st.Processed
	}
	// 2 of every 10 tuples are malformed and dropped.
	if processed != 3200 {
		t.Fatalf("processed %d, want 3200", processed)
	}
	if res.Merged == nil {
		t.Fatal("malformed tuples derailed the run")
	}
}

func TestPipelineTinyStreamNeverInitializes(t *testing.T) {
	// Fewer tuples than the warm-up size: engines never initialize; the
	// run must still terminate cleanly with Merged == nil.
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 20, Signals: 2, Seed: 51})
	var n int
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(20, 2, 300),
		NumEngines: 4,
		Source: func() ([]float64, []bool, bool) {
			if n >= 10 {
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
	if res.Merged != nil {
		t.Fatal("merged eigensystem from uninitialized engines")
	}
	if res.TuplesIn != 10 {
		t.Fatalf("TuplesIn = %d", res.TuplesIn)
	}
}
