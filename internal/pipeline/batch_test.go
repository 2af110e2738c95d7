package pipeline

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"streampca/internal/spectra"
	"streampca/internal/stream"
	"streampca/internal/syncctl"
)

// TestBatchedPipelineConverges runs the micro-batched transport end to end:
// no tuples lost, same convergence as the unbatched path, and the metrics
// prove the batching actually happened — the source emits far fewer messages
// than tuples while the tuple-weighted counters still account for every
// observation.
func TestBatchedPipelineConverges(t *testing.T) {
	const tuples, batch = 20000, 64
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Engine:       engineConfig(40, 3, 300),
		NumEngines:   4,
		Source:       signalSource(gen, tuples),
		Batch:        batch,
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != tuples {
		t.Fatalf("TuplesIn = %d", res.TuplesIn)
	}
	var processed int64
	for _, st := range res.Engines {
		processed += st.Processed
		if st.Final == nil {
			t.Fatalf("engine %d never initialized", st.Engine)
		}
	}
	if processed != tuples {
		t.Fatalf("processed %d/%d", processed, tuples)
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.9 {
		t.Fatalf("merged affinity = %v", aff)
	}
	var src *stream.MetricsSnapshot
	var enginesIn int64
	for i, m := range res.Metrics {
		switch {
		case m.Name == "source":
			src = &res.Metrics[i]
		case strings.HasPrefix(m.Name, "pca"):
			enginesIn += m.TuplesIn
		}
	}
	if src == nil {
		t.Fatal("metrics have no source node")
	}
	// A fast in-memory source fills nearly every frame; allow slack for
	// deadline-flushed partials but require an order-of-magnitude win.
	if src.Out > tuples/batch*4 {
		t.Fatalf("source emitted %d messages for %d tuples — transport not batched", src.Out, tuples)
	}
	if enginesIn != tuples {
		t.Fatalf("engines' tuple-weighted in = %d, want %d", enginesIn, tuples)
	}
	if src.TuplesOut != tuples {
		t.Fatalf("source tuple-weighted out = %d, want %d", src.TuplesOut, tuples)
	}
}

// TestBatchedPipelineSkipsMalformedTuples is the batched twin of
// TestPipelineSkipsMalformedTuples: wrong-length and all-NaN vectors inside
// frames must be dropped with identical accounting to the unbatched path.
func TestBatchedPipelineSkipsMalformedTuples(t *testing.T) {
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 20, Signals: 2, Seed: 50})
	var n int
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(20, 2, 300),
		NumEngines: 2,
		Batch:      16,
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
	if processed != 3200 {
		t.Fatalf("processed %d, want 3200", processed)
	}
	if res.Merged == nil {
		t.Fatal("malformed tuples derailed the run")
	}
}

// TestBatchedPipelineGappySpectra routes masked observations through the
// batched transport: gappy rows are patched inside the engine's chunks, so
// convergence must match the unbatched gappy test.
func TestBatchedPipelineGappySpectra(t *testing.T) {
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
		Batch:      32,
		SyncEvery:  3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.85 {
		t.Fatalf("batched gappy spectra affinity = %v", aff)
	}
}

// TestBatchedGappyProcessedMatchesUnbatched pins drop accounting on the
// gappy block path: the same stream — gappy spectra with one unusable row
// planted in every batch — reports the same Processed, summed over the
// engines, batched and unbatched, with frames that never close on the
// deadline. The random split routes tuples and whole frames to different
// engines, so only the sum is comparable.
func TestBatchedGappyProcessedMatchesUnbatched(t *testing.T) {
	const (
		n     = 8192
		batch = 32
		dim   = 120
	)
	run := func(b int) (*Result, float64) {
		gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
			Grid: spectra.SDSSGrid(dim), Rank: 3, Seed: 6, GapRate: 0.3, NoiseSigma: 0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		inner := spectraSource(gen, n)
		i := -1
		src := func() ([]float64, []bool, bool) {
			vec, mask, ok := inner()
			if !ok {
				return nil, nil, false
			}
			switch i++; i % (2 * batch) {
			case 0: // two observed bins cannot fit the basis
				mask = make([]bool, dim)
				mask[3], mask[70] = true, true
			case batch + 1: // NaN in a bin the mask calls observed
				mask = make([]bool, dim)
				for j := 10; j < dim; j++ {
					mask[j] = true
				}
				vec[40] = math.NaN()
			}
			return vec, mask, true
		}
		cfg := engineConfig(dim, 3, 500)
		cfg.Extra = 2
		res, err := Run(context.Background(), Config{
			Engine: cfg, NumEngines: 2, Source: src, Batch: b,
			Seed: 5, FlushEvery: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Merged.SubspaceAffinity(gen.TrueBasis())
	}
	plain, affPlain := run(0)
	batched, affBatched := run(batch)
	const want = n - n/batch // one row in every batch is unusable
	processed := func(res *Result) (sum int64) {
		for _, e := range res.Engines {
			sum += e.Processed
		}
		return sum
	}
	if p, b := processed(plain), processed(batched); p != want || b != want {
		t.Fatalf("engines processed %d unbatched, %d batched, want %d both ways", p, b, want)
	}
	if affPlain < 0.85 || math.Abs(affPlain-affBatched) > 0.02 {
		t.Fatalf("affinity %v unbatched, %v batched", affPlain, affBatched)
	}
}

// TestBatchedFlushDeadline checks the tail-latency bound: a source that
// trickles tuples far slower than the frame fills must still see its data
// flushed by the deadline, not held until Batch tuples accumulate.
func TestBatchedFlushDeadline(t *testing.T) {
	const tuples = 10
	gen, _ := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 20, Signals: 2, Seed: 22})
	var n int
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(20, 2, 100),
		NumEngines: 1,
		Batch:      64,
		FlushEvery: time.Millisecond,
		Source: func() ([]float64, []bool, bool) {
			if n >= tuples {
				return nil, nil, false
			}
			n++
			time.Sleep(5 * time.Millisecond)
			x, _ := gen.Next()
			return x, nil, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != tuples {
		t.Fatalf("TuplesIn = %d", res.TuplesIn)
	}
	for _, m := range res.Metrics {
		if m.Name == "source" {
			// With a 64-tuple frame and a deadline far below the inter-tuple
			// gap, the stream must arrive as several partial frames, not one.
			if m.Out < 3 {
				t.Fatalf("source emitted %d frames; deadline flush not working", m.Out)
			}
			if m.TuplesOut != tuples {
				t.Fatalf("source tuple-weighted out = %d, want %d", m.TuplesOut, tuples)
			}
		}
	}
}

// TestUnbatchedRunAllocsPerTuple: at Batch 0 (frames of one, the paper's
// per-tuple routing) a whole Run at d = 16 allocates at most about once per
// tuple — the Frame boxed into a stream.Message. Setup is taken out by
// differencing two stream lengths.
func TestUnbatchedRunAllocsPerTuple(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const d = 16
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: d, Signals: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i], _ = gen.Next()
	}
	mallocs := func(n int) uint64 {
		var i int
		src := func() ([]float64, []bool, bool) {
			if i == n {
				return nil, nil, false
			}
			i++
			return rows[i%len(rows)], nil, true
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(context.Background(), Config{
			Engine: engineConfig(d, 4, 3000), NumEngines: 4, Source: src, Seed: 42,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.TuplesIn != int64(n) {
			t.Fatalf("source returned %d/%d tuples", res.TuplesIn, n)
		}
		return after.Mallocs - before.Mallocs
	}
	const short, long = 20_000, 120_000
	base, full := mallocs(short), mallocs(long)
	per := float64(full-base) / (long - short)
	t.Logf("%.3f allocations per tuple", per)
	if per > 1.1 {
		t.Fatalf("Run allocates %.2f times per tuple at Batch 0, want ≤ 1.1", per)
	}
}
