package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/spectra"
)

func trainedEngine(t *testing.T, seed uint64) (*Engine, *model) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 77))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.05)
	en, err := NewEngine(testConfig(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, 1500)
	return en, m
}

func TestEigensystemRoundTrip(t *testing.T) {
	en, _ := trainedEngine(t, 700)
	var buf bytes.Buffer
	if err := en.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEigensystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := en.Eigensystem()
	if !mat.EqualApproxVec(got.Mean, want.Mean, 0) ||
		!mat.EqualApproxVec(got.Values, want.Values, 0) ||
		!got.Vectors.EqualApprox(want.Vectors, 0) ||
		got.Sigma2 != want.Sigma2 || got.SumU != want.SumU ||
		got.SumV != want.SumV || got.SumQ != want.SumQ ||
		got.Count != want.Count {
		t.Fatal("round trip lost state")
	}
}

func TestSaveCheckpointBeforeReadyFails(t *testing.T) {
	en, _ := NewEngine(Config{Dim: 5, Components: 1})
	if err := en.SaveCheckpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadEigensystemRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOPE" + strings.Repeat("\x00", 64),
		"truncated": "SPCA\x01\x00\x00",
	}
	for name, in := range cases {
		if _, err := ReadEigensystem(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestReadEigensystemRejectsBadVersionAndShape(t *testing.T) {
	en, _ := trainedEngine(t, 701)
	var buf bytes.Buffer
	if err := en.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Corrupt the version field (offset 4).
	bad := append([]byte(nil), raw...)
	bad[4] = 99
	if _, err := ReadEigensystem(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}

	// Corrupt the dimension field to an absurd value (offset 8).
	bad = append([]byte(nil), raw...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadEigensystem(bytes.NewReader(bad)); err == nil {
		t.Fatal("absurd shape accepted")
	}
}

func TestWriteEigensystemRejectsNonFinite(t *testing.T) {
	en, _ := trainedEngine(t, 702)
	es := en.Eigensystem().Clone()
	es.Values[0] = math.NaN()
	if err := WriteEigensystem(&bytes.Buffer{}, es); err == nil {
		t.Fatal("NaN state serialized")
	}
	if err := WriteEigensystem(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil eigensystem serialized")
	}
}

func TestResumeEngineContinuesLearning(t *testing.T) {
	en, m := trainedEngine(t, 703)
	var buf bytes.Buffer
	if err := en.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	es, err := ReadEigensystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeEngine(testConfig(30, 2), es)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Ready() {
		t.Fatal("resumed engine not ready")
	}
	if resumed.Count() != en.Count() {
		t.Fatalf("count %d, want %d", resumed.Count(), en.Count())
	}
	// Both engines must process the identical continuation identically.
	cont := m.samples(500)
	for _, x := range cont {
		u1, err1 := en.Observe(x)
		u2, err2 := resumed.Observe(x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Abs(u1.Weight-u2.Weight) > 1e-12 || math.Abs(u1.Residual2-u2.Residual2) > 1e-9 {
			t.Fatal("resumed engine diverges from original")
		}
	}
	if aff := resumed.Eigensystem().SubspaceAffinity(m.basis); aff < 0.95 {
		t.Fatalf("resumed affinity = %v", aff)
	}
}

func TestResumeEngineValidation(t *testing.T) {
	en, _ := trainedEngine(t, 704)
	es := en.Eigensystem().Clone()

	if _, err := ResumeEngine(testConfig(30, 2), nil); err == nil {
		t.Fatal("nil eigensystem accepted")
	}
	if _, err := ResumeEngine(testConfig(31, 2), es); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := ResumeEngine(testConfig(30, 3), es); err == nil {
		t.Fatal("component mismatch accepted")
	}
	bad := es.Clone()
	bad.Sigma2 = math.Inf(1)
	if _, err := ResumeEngine(testConfig(30, 2), bad); err == nil {
		t.Fatal("non-finite state accepted")
	}
	cfg := testConfig(30, 2)
	cfg.Dim = -1
	if _, err := ResumeEngine(cfg, es); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestResumeWithRetunedParameters(t *testing.T) {
	// Resuming under a different forgetting factor is a supported retune.
	en, m := trainedEngine(t, 705)
	es := en.Eigensystem().Clone()
	cfg := Config{Dim: 30, Components: 2, Alpha: 1 - 1.0/100} // shorter window
	resumed, err := ResumeEngine(cfg, es)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, resumed, m, 500)
	if aff := resumed.Eigensystem().SubspaceAffinity(m.basis); aff < 0.9 {
		t.Fatalf("retuned resume degraded: %v", aff)
	}
}

// esBytes is es in the checkpoint serialization.
func esBytes(t *testing.T, es *Eigensystem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEigensystem(&buf, es); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportLoadSeamByteEqual pins the one place the engine's component-major
// basis meets the d×k layout of Eigensystem, checkpoints and snapshots. After
// scalar, block, gappy-block and merge updates, four exports must serialize
// byte-equal — Snapshot(), Eigensystem(), SaveCheckpoint, and the Snapshot of
// an engine resumed from that checkpoint — and an Eigensystem() read between
// two updates must show the later one.
func TestExportLoadSeamByteEqual(t *testing.T) {
	for _, d := range []int{16, 400, 1000} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			_, rows := spectraRows(t, d, 700, 13)
			var complete [][]float64
			for _, o := range rows {
				if !hasGap(o.Mask) {
					complete = append(complete, o.Flux)
				}
			}
			cfg := Config{Dim: d, Components: 4, Extra: 1, Alpha: 1 - 1.0/500}
			en, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				snap, err := en.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				want := esBytes(t, snap)
				if !bytes.Equal(esBytes(t, en.Eigensystem()), want) {
					t.Fatalf("%s: Eigensystem() differs from Snapshot()", stage)
				}
				ckpt := eigensystemBytes(t, en)
				if !bytes.Equal(ckpt, want) {
					t.Fatalf("%s: SaveCheckpoint differs from Snapshot()", stage)
				}
				back, err := ReadEigensystem(bytes.NewReader(ckpt))
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := ResumeEngine(cfg, back)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := resumed.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(esBytes(t, rs), want) {
					t.Fatalf("%s: resumed engine's Snapshot() differs", stage)
				}
			}

			for _, x := range complete[:200] {
				if _, err := en.Observe(x); err != nil {
					t.Fatal(err)
				}
			}
			check("Observe")

			before := esBytes(t, en.Eigensystem())
			if _, err := en.Observe(complete[200]); err != nil {
				t.Fatal(err)
			}
			after := esBytes(t, en.Eigensystem())
			snap, _ := en.Snapshot()
			if bytes.Equal(after, before) || !bytes.Equal(after, esBytes(t, snap)) {
				t.Fatal("Eigensystem() read between two updates does not show the later one")
			}

			for i := 201; i+64 <= len(complete); i += 64 {
				if _, err := en.ObserveBlock(complete[i:i+64], nil); err != nil {
					t.Fatal(err)
				}
			}
			check("ObserveBlock")

			// Gappy spectra in 64-row batches; at d = 16 a gap can leave too few
			// bins to fit, and such rows are skipped.
			masked := func(en *Engine, rows []spectra.Observation) {
				for i := 0; i < len(rows); i += 64 {
					var xs [][]float64
					var ms [][]bool
					for _, o := range rows[i:min(i+64, len(rows))] {
						xs, ms = append(xs, o.Flux), append(ms, o.Mask)
					}
					if _, err := en.ObserveBlockMasked(xs, ms, nil); err != nil && err != errFewObserved {
						t.Fatal(err)
					}
				}
			}
			masked(en, rows)
			check("ObserveBlockMasked")

			peer, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			masked(peer, rows[350:])
			ps, err := peer.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := en.MergeSnapshot(ps); err != nil {
				t.Fatal(err)
			}
			check("MergeSnapshot")
			if err := en.MergeApprox(ps); err != nil {
				t.Fatal(err)
			}
			check("MergeApprox")
		})
	}
}
