package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/fault"
	"streampca/internal/spectra"
)

// gappySpectra is a source over n seeded gappy spectra (d=120, NaN in the
// missing bins, mask nil for a complete row). With reuse it writes every row
// into one shared vec and mask, as ingest.BinaryStream does; without, every
// row is a fresh slice.
func gappySpectra(t *testing.T, n int, reuse bool) Source {
	const dim = 120
	gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
		Grid: spectra.SDSSGrid(dim), Rank: 3, Seed: 6, GapRate: 0.3, NoiseSigma: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	vec, mask := make([]float64, dim), make([]bool, dim)
	return func() ([]float64, []bool, bool) {
		if n--; n < 0 {
			return nil, nil, false
		}
		o := gen.Next()
		if !slices.Contains(o.Mask, false) {
			o.Mask = nil
		}
		if !reuse {
			return o.Flux, o.Mask, true
		}
		copy(vec, o.Flux)
		if o.Mask == nil {
			return vec, nil, true
		}
		copy(mask, o.Mask)
		return vec, mask, true
	}
}

// runDigest is a run's per-engine Processed/Outliers and the SHA-256 of its
// merged eigensystem.
func runDigest(t *testing.T, res *Result) string {
	var buf bytes.Buffer
	if err := core.WriteEigensystem(&buf, res.Merged); err != nil {
		t.Fatal(err)
	}
	s := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	for _, e := range res.Engines {
		s += fmt.Sprintf(" %d/%d", e.Processed, e.Outliers)
	}
	return s
}

// TestSourceMayReuseRowStorage pins the Source contract: the pipeline copies
// each row into its frame before it pulls the next, so a source that hands
// out one shared vec and mask gives bitwise the run a fresh-slice source
// gives — in process at frames of one and of 64, under fault injection
// (which turns the frame pool off and duplicates frames), and over TCP.
func TestSourceMayReuseRowStorage(t *testing.T) {
	const n = 6000
	engine := engineConfig(120, 3, 500)
	engine.Extra = 2
	chaos := &ChaosConfig{Edge: map[int]fault.Plan{
		0: {Seed: 21, Duplicate: 0.2, Drop: 0.05},
		1: {Seed: 22, Duplicate: 0.1, Reorder: 0.05},
	}}
	for _, tc := range []struct {
		name  string
		batch int
		chaos *ChaosConfig
	}{
		{"batch0", 0, nil},
		{"batch64", 64, nil},
		{"chaos-batch16", 16, chaos},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var digest [2]string
			for i, reuse := range []bool{false, true} {
				res, err := Run(context.Background(), Config{
					Engine: engine, NumEngines: 2, Source: gappySpectra(t, n, reuse),
					Batch: tc.batch, Seed: 9, FlushEvery: time.Hour, Chaos: tc.chaos,
				})
				if err != nil {
					t.Fatal(err)
				}
				digest[i] = runDigest(t, res)
			}
			if digest[0] != digest[1] {
				t.Fatalf("fresh rows: %s\nreused rows: %s", digest[0], digest[1])
			}
		})
	}
	t.Run("coordinator-batch16", func(t *testing.T) {
		cl := launchCluster(t, 2, WorkerSpec{
			Dim: 120, Components: 3, Extra: 2, Alpha: engine.Alpha, Batch: 16, Sessions: 2,
		})
		var digest [2]string
		for i, reuse := range []bool{false, true} {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := RunCoordinator(ctx, DistConfig{
				Engine: engine, Workers: cl.Addrs, Source: gappySpectra(t, n, reuse),
				Batch: 16, Seed: 9, FlushEvery: time.Hour, Retry: distRetry,
			})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			digest[i] = runDigest(t, res)
		}
		if digest[0] != digest[1] {
			t.Fatalf("fresh rows: %s\nreused rows: %s", digest[0], digest[1])
		}
	})
}
