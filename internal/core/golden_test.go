package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"streampca/internal/spectra"
)

// goldenDigests are SHA-256(WriteEigensystem) after the fixed streams of
// TestEngineDigestGolden. The mat kernels have assembly on amd64 and run their
// Go loops elsewhere; both must land on these bytes.
var goldenDigests = map[string]string{
	"observe-d16":       "2ae6a84479f98329a8b20b65960f1b9a49d5f95b9744a7e648605c4bb431d71a",
	"block-d400":        "69fa815120d43f387dacd78b7e55e8b0225d87f65a843fe2c99464cb329da848",
	"block-masked-d400": "2ba078e9f77ba1d18e0b660be1a165ba99a9cac6c4631a7ea57610d3d45da9e1",
}

// TestEngineDigestGolden pins the engine's output bytes for three fixed signal
// streams: d=16 through Observe, d=400 through ObserveBlock in 64-row batches,
// and d=400 with seeded random gaps through ObserveBlockMasked. The signal
// generator is used because its output is the same on every GOARCH the test
// runs on (the spectra generator's math.Exp/Pow/Log10 have amd64 assembly).
// Other architectures may fuse x*y+z into one rounding, so they are skipped.
func TestEngineDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("output bytes are pinned for amd64 and 386 only, not %s", runtime.GOARCH)
	}
	const rows = 3000
	for _, tc := range []struct {
		name  string
		d     int
		batch int
		gaps  bool
	}{
		{"observe-d16", 16, 0, false},
		{"block-d400", 400, 64, false},
		{"block-masked-d400", 400, 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{
				Dim: tc.d, OutlierRate: 0.02, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			en, err := NewEngine(Config{Dim: tc.d, Components: 4, Extra: 1, Alpha: 1 - 1.0/5000})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(11, 13))
			xs := make([][]float64, 0, tc.batch)
			masks := make([][]bool, 0, tc.batch)
			for i := 0; i < rows; i++ {
				x, _ := gen.Next()
				if tc.batch == 0 {
					if _, err := en.Observe(x); err != nil {
						t.Fatalf("Observe row %d: %v", i, err)
					}
					continue
				}
				var mask []bool
				if tc.gaps && rng.IntN(2) == 0 {
					mask = make([]bool, tc.d)
					for j := range mask {
						mask[j] = rng.IntN(10) != 0
					}
				}
				xs, masks = append(xs, x), append(masks, mask)
				if len(xs) == tc.batch || i == rows-1 {
					if _, err := en.ObserveBlockMasked(xs, masks, nil); err != nil {
						t.Fatalf("ObserveBlockMasked at row %d: %v", i, err)
					}
					xs, masks = xs[:0], masks[:0]
				}
			}
			var buf bytes.Buffer
			if err := WriteEigensystem(&buf, en.Eigensystem()); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != goldenDigests[tc.name] {
				t.Errorf("digest %s, golden %s", got, goldenDigests[tc.name])
			}
		})
	}
}
