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
	"observe-d16":       "5d2ebb21682845e1e4c1bf28a11073366e8e04a73885283e9d50a28e9e7dee0a",
	"block-d400":        "e6864e60a163debd0595be0a27c3e2ec3137aa8a73245d92ccd2b1c3bdcce219",
	"block-masked-d400": "a71badc610d814bc2fe8eed12bcc2b586fce7bc2c5ca0349e10415394dd7a8f3",
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
