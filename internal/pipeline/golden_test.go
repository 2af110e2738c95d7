package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/spectra"
)

// pipelineGolden pins, per (d, Batch), SHA-256(WriteEigensystem(Merged))
// after TestPipelineDigestGolden's run, followed by each engine's
// Processed/Outliers.
var pipelineGolden = map[string]string{
	"d16-batch0":   "221dac871c7187096820e9123ad044f832b6c2039adc0d3fd0a1fe242c4ed224 488/9 497/16 520/14 495/9",
	"d16-batch64":  "7cb9ddc6e294aa67137e8f27fdb57f7235e5e485684f934482828d58f0726cd2 656/18 192/5 512/11 640/18",
	"d400-batch0":  "13185a8db2d6683074ad1a1d225dc71c7203487abb2817047b90040452f71e2c 488/8 497/8 520/10 495/9",
	"d400-batch64": "b5ea00a433ca7dfc495663a3cea01c93f79663d48cd9510c8cdd0970fb3c599d 656/10 192/5 512/7 640/11",
}

// TestPipelineDigestGolden is the pipeline counterpart of core's
// TestEngineDigestGolden: four engines behind a seeded random split, with
// sync off and frames closed on width only, must produce the pinned merged
// eigensystem bytes and per-engine counts. Batch 0 sends frames of one,
// which the engines absorb row by row through Observe; Batch 64 takes the
// block path. Like the core digests, the bytes are pinned for amd64 and 386
// only.
func TestPipelineDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("output bytes are pinned for amd64 and 386 only, not %s", runtime.GOARCH)
	}
	const rows = 2000
	for _, d := range []int{16, 400} {
		for _, batch := range []int{0, 64} {
			name := fmt.Sprintf("d%d-batch%d", d, batch)
			t.Run(name, func(t *testing.T) {
				gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: d, Seed: 42, OutlierRate: 0.02})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), Config{
					Engine:     core.Config{Dim: d, Components: 4},
					NumEngines: 4,
					Source:     signalSource(gen, rows),
					Seed:       42,
					Batch:      batch,
					FlushEvery: time.Hour,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := core.WriteEigensystem(&buf, res.Merged); err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				for _, e := range res.Engines {
					got += fmt.Sprintf(" %d/%d", e.Processed, e.Outliers)
				}
				if got != pipelineGolden[name] {
					t.Errorf("got %s\nwant %s", got, pipelineGolden[name])
				}
			})
		}
	}
}
