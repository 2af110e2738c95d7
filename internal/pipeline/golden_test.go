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
	"d16-batch0":   "7d4a80f196dbea34f7e6113d232916a7f857254f10997d6a653188fee020ebc0 488/9 497/16 520/14 495/9",
	"d16-batch64":  "084db8bd2198051aca7df890c5f6396a15e71fc16e2079e97f9f0e86371c6a98 656/18 192/5 512/11 640/18",
	"d400-batch0":  "bd1692c47d26b087956e735e318bb4b4be0e066ca23fc73ad897014bcb0d20b3 488/8 497/8 520/10 495/9",
	"d400-batch64": "0708e25cc46d4a5f6fe4c27f502f05e53100da18095909a9ec2727bf8ac52e5f 656/10 192/5 512/7 640/11",
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
