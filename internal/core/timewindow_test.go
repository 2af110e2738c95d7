package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func timeCfg(d, p int, window time.Duration) Config {
	return Config{Dim: d, Components: p, TimeWindow: window}
}

func TestObserveAtRequiresTimeWindow(t *testing.T) {
	en, _ := NewEngine(Config{Dim: 5, Components: 1})
	if _, err := en.ObserveAt(make([]float64, 5), time.Now()); err == nil {
		t.Fatal("expected error without TimeWindow")
	}
	if _, err := en.ObserveMaskedAt(make([]float64, 5), make([]bool, 5), time.Now()); err == nil {
		t.Fatal("expected error without TimeWindow")
	}
}

func TestTimeWindowValidation(t *testing.T) {
	cfg := Config{Dim: 5, Components: 1, TimeWindow: -time.Second}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("negative TimeWindow accepted")
	}
}

func TestObserveAtValidatesInput(t *testing.T) {
	en, _ := NewEngine(timeCfg(5, 1, time.Minute))
	now := time.Now()
	if _, err := en.ObserveAt(make([]float64, 3), now); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := []float64{1, 2, math.NaN(), 4, 5}
	if _, err := en.ObserveAt(bad, now); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestObserveAtConvergesAtSteadyRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(800, 1))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.05)
	en, err := NewEngine(timeCfg(30, 2, 10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1e9, 0)
	for i := 0; i < 3000; i++ {
		x, _ := m.sample()
		now = now.Add(time.Second)
		if _, err := en.ObserveAt(x, now); err != nil {
			t.Fatal(err)
		}
	}
	if aff := en.Eigensystem().SubspaceAffinity(m.basis); aff < 0.97 {
		t.Fatalf("time-windowed affinity = %v", aff)
	}
}

func TestObserveAtForgetsByWallClock(t *testing.T) {
	// Two regimes separated by a long silent gap: the gap alone (many time
	// constants) must wipe the old subspace even though few observations
	// arrive afterwards.
	rng := rand.New(rand.NewPCG(801, 2))
	m1 := newModel(rng, 30, 2, []float64{4, 1}, 0.05)
	m2 := newModel(rng, 30, 2, []float64{4, 1}, 0.05)
	en, err := NewEngine(timeCfg(30, 2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1e9, 0)
	for i := 0; i < 2000; i++ {
		x, _ := m1.sample()
		now = now.Add(100 * time.Millisecond)
		if _, err := en.ObserveAt(x, now); err != nil {
			t.Fatal(err)
		}
	}
	if aff := en.Eigensystem().SubspaceAffinity(m1.basis); aff < 0.95 {
		t.Fatalf("phase 1 affinity = %v", aff)
	}
	// One hour of silence = 60 time constants.
	now = now.Add(time.Hour)
	for i := 0; i < 600; i++ {
		x, _ := m2.sample()
		now = now.Add(100 * time.Millisecond)
		if _, err := en.ObserveAt(x, now); err != nil {
			t.Fatal(err)
		}
	}
	es := en.Eigensystem()
	if aff := es.SubspaceAffinity(m2.basis); aff < 0.85 {
		t.Fatalf("did not adapt after the gap: %v", aff)
	}
	if aff := es.SubspaceAffinity(m1.basis); aff > 0.5 {
		t.Fatalf("did not forget across the gap: %v", aff)
	}
}

func TestObserveAtBackwardsTimestampIsSimultaneous(t *testing.T) {
	rng := rand.New(rand.NewPCG(802, 3))
	m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
	en, _ := NewEngine(timeCfg(20, 2, time.Minute))
	now := time.Unix(1e9, 0)
	for i := 0; i < 200; i++ {
		x, _ := m.sample()
		if _, err := en.ObserveAt(x, now); err != nil {
			t.Fatal(err)
		}
	}
	// A stamp in the past must not panic or inject negative decay.
	x, _ := m.sample()
	if _, err := en.ObserveAt(x, now.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !en.Eigensystem().checkFinite() {
		t.Fatal("state corrupted by backwards timestamp")
	}
}

func TestObserveMaskedAtPatchesAndDecays(t *testing.T) {
	rng := rand.New(rand.NewPCG(803, 4))
	m := newModel(rng, 30, 2, []float64{4, 1}, 0.05)
	cfg := timeCfg(30, 2, time.Minute)
	cfg.Extra = 1
	en, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1e9, 0)
	for i := 0; i < 2500; i++ {
		x, _ := m.sample()
		now = now.Add(50 * time.Millisecond)
		mask := randomMask(rng, 30, 0.15)
		if _, err := en.ObserveMaskedAt(x, mask, now); err != nil {
			t.Fatal(err)
		}
	}
	if aff := en.Eigensystem().SubspaceAffinity(m.basis); aff < 0.9 {
		t.Fatalf("masked time-window affinity = %v", aff)
	}
}

// stampedEntries are the two time-windowed entry points, fed a complete row
// (ObserveMaskedAt with an all-true mask).
var stampedEntries = []struct {
	name    string
	observe func(en *Engine, x []float64, at time.Time) error
}{
	{"ObserveAt", func(en *Engine, x []float64, at time.Time) error {
		_, err := en.ObserveAt(x, at)
		return err
	}},
	{"ObserveMaskedAt", func(en *Engine, x []float64, at time.Time) error {
		all := make([]bool, len(x))
		for i := range all {
			all[i] = true
		}
		_, err := en.ObserveMaskedAt(x, all, at)
		return err
	}},
}

// TestTimeDecayUnderflowForgetsEverything: after a gap of ~2000 time
// constants exp(−Δt/τ) underflows to 0, and the next row must still decay
// the running sums by it — leaving an effective window of one row — rather
// than fall back to Config.Alpha.
func TestTimeDecayUnderflowForgetsEverything(t *testing.T) {
	for _, tc := range stampedEntries {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(804, 5))
			m := newModel(rng, 20, 2, []float64{4, 1}, 0.05)
			en, err := NewEngine(timeCfg(20, 2, time.Second))
			if err != nil {
				t.Fatal(err)
			}
			now := time.Unix(1e9, 0)
			for i := 0; i < 500; i++ {
				x, _ := m.sample()
				now = now.Add(time.Millisecond)
				if err := tc.observe(en, x, now); err != nil {
					t.Fatal(err)
				}
			}
			x, _ := m.sample()
			if err := tc.observe(en, x, now.Add(2000*time.Second)); err != nil {
				t.Fatal(err)
			}
			if w := en.Eigensystem().EffectiveWindow(); w != 1 {
				t.Fatalf("effective window after the gap = %v, want 1", w)
			}
		})
	}
}

// TestRejectedStampedRowKeepsClock: a row the engine rejects must not move
// the window clock, so the next accepted row decays by the whole gap since
// the last accepted one. Two engines fed the same accepted rows, one with
// rejected rows in between, must end bitwise equal.
func TestRejectedStampedRowKeepsClock(t *testing.T) {
	const d = 20
	nan := make([]float64, d)
	nan[3] = math.NaN()
	huge := make([]float64, d)
	for i := range huge {
		huge[i] = 1e200
	}
	run := func(t *testing.T, observe func(*Engine, []float64, time.Time) error, bad [][]float64) []byte {
		rng := rand.New(rand.NewPCG(805, 6))
		m := newModel(rng, d, 2, []float64{4, 1}, 0.05)
		en, err := NewEngine(timeCfg(d, 2, time.Second))
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(1e9, 0)
		for i := 0; i < 300; i++ {
			x, _ := m.sample()
			now = now.Add(10 * time.Millisecond)
			if i%50 == 49 {
				for _, b := range bad {
					if err := observe(en, b, now.Add(-5*time.Millisecond)); err == nil {
						t.Fatal("bad row accepted")
					}
				}
			}
			if err := observe(en, x, now); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := WriteEigensystem(&buf, en.Eigensystem()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range stampedEntries {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Equal(run(t, tc.observe, nil), run(t, tc.observe, [][]float64{nan, huge})) {
				t.Fatal("rejected rows moved the window clock")
			}
		})
	}
}
