package pipeline

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/spectra"
)

// TestRunBitwiseAcrossGOMAXPROCS is the pipeline half of core's
// TestEngineBitwiseAcrossGOMAXPROCS: with sync off and frames closed on
// width only, four engines at d=400 must produce a byte-identical merged
// eigensystem at GOMAXPROCS 1 and 2.
func TestRunBitwiseAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var merged [2][]byte
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 400, Signals: 5, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Config{
			Engine:     engineConfig(400, 5, 2000),
			NumEngines: 4,
			Source:     signalSource(gen, 8000),
			Seed:       42,
			Batch:      64,
			FlushEvery: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteEigensystem(&buf, res.Merged); err != nil {
			t.Fatal(err)
		}
		merged[i] = buf.Bytes()
	}
	if !bytes.Equal(merged[0], merged[1]) {
		t.Fatal("merged eigensystem differs between GOMAXPROCS 1 and 2")
	}
}
