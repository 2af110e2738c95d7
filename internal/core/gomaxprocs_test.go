package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestEngineBitwiseAcrossGOMAXPROCS pins that an engine's output is a
// function of (data, seed, config) alone: the same stream fed through
// ObserveBlock must leave byte-identical checkpoints at GOMAXPROCS 1 and 2.
// d ≥ 400 is where the warm-up SVD's Gram was once split across goroutines
// with a core-count-dependent summation order.
func TestEngineBitwiseAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, d := range []int{16, 400, 1000} {
		for _, batch := range []int{1, 64} {
			t.Run(fmt.Sprintf("d%d-batch%d", d, batch), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(d), uint64(batch)))
				m := newModel(rng, d, 5, []float64{25, 16, 9, 4, 1}, 0.1)
				m.outlier = 0.02
				blocks := make([][][]float64, 40)
				for i := range blocks {
					blocks[i] = m.samples(batch)
				}
				var ckpt [2][]byte
				for i, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					en, err := NewEngine(testConfig(d, 5))
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range blocks {
						if _, err := en.ObserveBlock(b, nil); err != nil {
							t.Fatal(err)
						}
					}
					var buf bytes.Buffer
					if err := en.SaveCheckpoint(&buf); err != nil {
						t.Fatal(err)
					}
					ckpt[i] = buf.Bytes()
				}
				if !bytes.Equal(ckpt[0], ckpt[1]) {
					t.Fatal("checkpoint bytes differ between GOMAXPROCS 1 and 2")
				}
			})
		}
	}
}
