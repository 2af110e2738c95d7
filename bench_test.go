// Benchmarks regenerating every figure of the paper's evaluation section,
// plus the ablations DESIGN.md calls out. Run all of them with
//
//	go test -bench=. -benchmem
//
// Each figure bench executes its full experiment per iteration and reports
// the headline scalar as a custom metric, so `benchstat` can track shape
// drift; the text tables behind the figures come from `cmd/benchfig`.
package streampca_test

import (
	"context"
	"fmt"
	"testing"

	"streampca"
	"streampca/internal/exp"
)

// BenchmarkFig1 regenerates Figure 1: classic vs robust eigenvalue traces
// under 10% outlier contamination. Reported metrics: final subspace
// affinity of both estimators and the outlier detection rate.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig1(exp.Fig1Config{N: 12000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RobustAff, "robust-aff")
		b.ReportMetric(res.ClassicAff, "classic-aff")
		b.ReportMetric(res.DetectionRate, "detect-rate")
	}
}

// BenchmarkFig4Fig5 regenerates Figures 4–5: eigenspectra of synthetic
// galaxy spectra early (noisy) and after many observations (converged,
// smooth, physical lines). Reported: late affinity and the early/late
// roughness ratio (the smoothness improvement the paper reads visually).
func BenchmarkFig4Fig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig45(exp.Fig45Config{Bins: 400, Late: 15000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LateAff, "late-aff")
		if res.LateRoughness > 0 {
			b.ReportMetric(res.EarlyRoughness/res.LateRoughness, "smoothing-x")
		}
		b.ReportMetric(res.LineRecall, "line-recall")
	}
}

// BenchmarkFig6 regenerates Figure 6: simulated cluster throughput vs
// engine count for single-node vs distributed placement. Reported: the
// distributed peak throughput, its engine count, and the single-node
// plateau.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig6(exp.Fig6Config{Duration: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		single := 0.0
		for j := range res.Engines {
			if res.Distributed[j] > peak {
				peak = res.Distributed[j]
			}
			if res.Single[j] > single {
				single = res.Single[j]
			}
		}
		b.ReportMetric(peak, "dist-peak-t/s")
		b.ReportMetric(float64(res.PeakEngines), "peak-engines")
		b.ReportMetric(single, "single-max-t/s")
	}
}

// BenchmarkFig7 regenerates Figure 7: tuples/s/thread vs dimensionality for
// 1, 5, 10 and 20 engines. Reported: per-thread rate at the corners of the
// sweep.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig7(exp.Fig7Config{Duration: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Dims) - 1
		for s, threads := range res.Threads {
			b.ReportMetric(res.PerThread[s][0], fmt.Sprintf("thr%d-d250", threads))
			b.ReportMetric(res.PerThread[s][last], fmt.Sprintf("thr%d-d2000", threads))
		}
	}
}

// BenchmarkSyncAblation measures the coordination-regime ablation (E7):
// the data-driven 1.5·N criterion vs never/always syncing on the real
// goroutine pipeline.
func BenchmarkSyncAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSyncAblation(exp.SyncAblationConfig{N: 12000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MeanAff, row.Regime+"-aff")
		}
	}
}

// BenchmarkGapsAblation measures the §II-D missing-data ablation (E8).
func BenchmarkGapsAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunGapsAblation(exp.GapsAblationConfig{Bins: 150, N: 10000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.Affinity, row.Strategy+"-aff")
		}
	}
}

// BenchmarkParallelPipeline measures real goroutine-parallel throughput of
// the full analysis graph on this machine (experiment E6, supporting the
// Figure 6 claims outside the simulator).
func BenchmarkParallelPipeline(b *testing.B) {
	for _, engines := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("engines-%d", engines), func(b *testing.B) {
			// A fixed 20k-tuple stream per iteration so warm-up and
			// pipeline startup do not dominate the measurement.
			const streamLen = 20000
			var thr float64
			for i := 0; i < b.N; i++ {
				gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: 250, Signals: 5, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				var n int64
				res, err := streampca.RunPipeline(context.Background(), streampca.PipelineConfig{
					Engine:     streampca.Config{Dim: 250, Components: 5, Alpha: 1 - 1.0/5000},
					NumEngines: engines,
					Source: func() ([]float64, []bool, bool) {
						if n >= streamLen {
							return nil, nil, false
						}
						n++
						x, _ := gen.Next()
						return x, nil, true
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				thr = res.Throughput()
			}
			b.ReportMetric(thr, "tuples/s")
		})
	}
}

// BenchmarkObserveBlock measures the block-incremental update against the
// sequential path at the same operating points as BenchmarkObserve: one call
// absorbs a 64-row batch, and the reported ns/row metric (ns/op ÷ 64) is the
// per-observation figure that compares directly with BenchmarkObserve's
// ns/op. The chunk-width sweep (d-*/c-* lanes) is internal/core's
// BenchmarkObserveBlock.
func BenchmarkObserveBlock(b *testing.B) {
	lane := func(b *testing.B, d int) {
		gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: d, Signals: 5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		en, err := streampca.NewEngine(streampca.Config{Dim: d, Components: 5, Alpha: 1 - 1.0/5000})
		if err != nil {
			b.Fatal(err)
		}
		const batch = 64
		blocks := make([][][]float64, 4)
		for j := range blocks {
			blocks[j] = make([][]float64, batch)
			for i := range blocks[j] {
				blocks[j][i], _ = gen.Next()
			}
		}
		for i := 0; i <= en.Config().InitSize; i++ {
			en.Observe(blocks[0][i%batch])
		}
		out := make([]streampca.Update, 0, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			out, err = en.ObserveBlock(blocks[i%len(blocks)], out[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*batch), "ns/row")
	}
	for _, d := range []int{250, 400, 1000} {
		b.Run(fmt.Sprintf("d-%d", d), func(b *testing.B) { lane(b, d) })
	}
	// The science case: SDSS-like spectra, 30% of the rows gappy and patched
	// inside their chunks. For local iteration; the repo benchmark's
	// spectra-gappy-d1000 workload is the gate.
	b.Run("gappy30-d1000", func(b *testing.B) {
		const d, batch = 1000, 64
		gen, err := streampca.NewSpectraGenerator(streampca.SpectraConfig{Grid: streampca.SDSSGrid(d), Rank: 4, GapRate: 0.3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		en, err := streampca.NewEngine(streampca.Config{Dim: d, Components: 5, Alpha: 1 - 1.0/5000})
		if err != nil {
			b.Fatal(err)
		}
		blocks := make([][][]float64, 4)
		masks := make([][][]bool, len(blocks))
		for j := range blocks {
			for i := 0; i < batch; i++ {
				o := gen.Next()
				blocks[j], masks[j] = append(blocks[j], o.Flux), append(masks[j], o.Mask)
			}
		}
		for i := 0; !en.Ready(); i++ {
			en.ObserveMasked(blocks[0][i%batch], masks[0][i%batch])
		}
		out := make([]streampca.Update, 0, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			out, err = en.ObserveBlockMasked(blocks[i%len(blocks)], masks[i%len(blocks)], out[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*batch), "ns/row")
	})
}

// BenchmarkMergeAblation compares the exact (eq. 15) and approximate
// (eq. 16) eigensystem merges — the paper's "approximation becomes
// possible that speeds up the synchronization step".
func BenchmarkMergeAblation(b *testing.B) {
	mk := func() (*streampca.Engine, *streampca.Eigensystem) {
		gen, _ := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: 500, Signals: 5, Seed: 7})
		a, _ := streampca.NewEngine(streampca.Config{Dim: 500, Components: 5, Alpha: 1 - 1.0/2000})
		c, _ := streampca.NewEngine(streampca.Config{Dim: 500, Components: 5, Alpha: 1 - 1.0/2000})
		for i := 0; i < 500; i++ {
			x, _ := gen.Next()
			a.Observe(x)
			y, _ := gen.Next()
			c.Observe(y)
		}
		snap, _ := c.Snapshot()
		return a, snap
	}
	b.Run("exact-eq15", func(b *testing.B) {
		a, snap := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.MergeSnapshot(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx-eq16", func(b *testing.B) {
		a, snap := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.MergeApprox(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObserve measures the per-observation engine cost across the
// dimensionalities of Figure 7 — the numbers cluster.Workload.Calibrate
// consumes — plus d = 16, where the small eigenproblem rather than the O(d·k)
// passes dominates the rank-one update.
func BenchmarkObserve(b *testing.B) {
	for _, d := range []int{16, 250, 400, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("d-%d", d), func(b *testing.B) {
			gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: d, Signals: 5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			en, err := streampca.NewEngine(streampca.Config{Dim: d, Components: 5, Alpha: 1 - 1.0/5000})
			if err != nil {
				b.Fatal(err)
			}
			xs := make([][]float64, 256)
			for i := range xs {
				xs[i], _ = gen.Next()
			}
			for i := 0; i <= en.Config().InitSize; i++ {
				en.Observe(xs[i%len(xs)])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := en.Observe(xs[i%len(xs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
