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
	"d16-batch0":   "29de5669b04a3100ac8d06a4bbdb32baf708a7201c3c27149af061cfc8760ac6 488/9 497/16 520/14 495/9",
	"d16-batch64":  "31330ac9eeb74c2446aba59403ef6af40ef31889f1545f66056c6f3521709593 656/18 192/5 512/11 640/18",
	"d400-batch0":  "db4ed477437533504450dac16d093f04fb2d8b7fd2afcb721043e08d61b142db 488/8 497/8 520/10 495/9",
	"d400-batch64": "d8b920fe31128acd43abfda48af901333d20f4a17aa86298e62050af460897f7 656/10 192/5 512/7 640/11",
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
