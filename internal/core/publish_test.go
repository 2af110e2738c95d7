package core_test

import (
	"slices"
	"testing"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/spectra"
)

// The engine carries no instruments: whoever hosts it reads its state after
// an update and publishes it through obs — the engine operator once per
// frame, the streampca -resume loop once per row. These tests pin that the
// engine's read accessors feed the obs calls exactly and that the
// instrumented update paths stay allocation-free.

// signalRows draws n rows of a d-dimensional stream with three planted
// signals.
func signalRows(t testing.TB, d, n int, seed uint64) [][]float64 {
	t.Helper()
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: d, Signals: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i], _ = gen.Next()
	}
	return rows
}

func newEngine(t testing.TB, d int) *core.Engine {
	t.Helper()
	en, err := core.NewEngine(core.Config{Dim: d, Components: 3, Alpha: 1 - 1.0/500, ReorthEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	return en
}

// publishRow is the -resume loop's per-row publish.
func publishRow(inst *obs.EngineInstruments, en *core.Engine, u core.Update) {
	inst.Observations.Inc()
	if u.Outlier {
		inst.Outliers.Inc()
	}
	if en.Ready() {
		vals, sigma2, effN := en.Spectrum()
		inst.RecordEigen(sigma2, effN, en.SinceSync(), vals, en.Config().Components)
	}
}

// publishBlock is the engine operator's per-frame publish.
func publishBlock(inst *obs.EngineInstruments, en *core.Engine, us []core.Update) {
	var outliers int64
	for _, u := range us {
		if u.Outlier {
			outliers++
		}
	}
	inst.Observations.Add(int64(len(us)))
	inst.Outliers.Add(outliers)
	if en.Ready() {
		vals, sigma2, effN := en.Spectrum()
		inst.RecordEigen(sigma2, effN, en.SinceSync(), vals, en.Config().Components)
	}
}

// TestEnginePublishesGauges checks the publish contract: after warm-up and
// steady updates, a bundle fed from the engine's accessors carries σ², the
// leading eigenvalues and eigengap, the effective N, the since-sync count
// and a tally of every row, and the warm-up completes on the InitSize-th row.
func TestEnginePublishesGauges(t *testing.T) {
	const d = 60
	en := newEngine(t, d)
	inst := obs.NewSet().Engine(0)
	initAt := -1
	rows := signalRows(t, d, en.Config().InitSize+200, 91)
	for i, x := range rows {
		u, err := en.Observe(x)
		if err != nil {
			t.Fatal(err)
		}
		if u.Initialized {
			initAt = i + 1
		}
		publishRow(inst, en, u)
	}
	if !en.Ready() {
		t.Fatal("engine not ready")
	}
	if initAt != en.Config().InitSize {
		t.Errorf("warm-up completed on row %d, want %d", initAt, en.Config().InitSize)
	}

	st := en.Eigensystem()
	if got := inst.Sigma2.Get(); got <= 0 || got != st.Sigma2 {
		t.Errorf("Sigma2 gauge = %g, state = %g", got, st.Sigma2)
	}
	if got := inst.EffN.Get(); got <= 0 || got != st.EffectiveWindow() {
		t.Errorf("EffN gauge = %g, state = %g", got, st.EffectiveWindow())
	}
	if got := inst.SinceSync.Get(); got != float64(en.SinceSync()) {
		t.Errorf("SinceSync gauge = %g, engine = %d", got, en.SinceSync())
	}
	if vals := inst.Eigenvalues(); len(vals) == 0 || !slices.Equal(vals, st.Values[:len(vals)]) {
		t.Errorf("eigenvalue gauges = %v, state = %v", vals, st.Values)
	}
	if p := en.Config().Components; p < len(st.Values) {
		if got, want := inst.Eigengap.Get(), st.Values[p-1]-st.Values[p]; got != want {
			t.Errorf("eigengap = %g, want %g", got, want)
		}
	}
	if got := inst.Observations.Load(); got != int64(len(rows)) {
		t.Errorf("observations = %d, want %d (warm-up rows included)", got, len(rows))
	}
}

// TestInstrumentedObserveZeroAllocs: Observe followed by the per-row
// publish allocates nothing once the engine is warm.
func TestInstrumentedObserveZeroAllocs(t *testing.T) {
	const d = 80
	en := newEngine(t, d)
	inst := obs.NewSet().Engine(0)
	xs := signalRows(t, d, 256, 7)
	for i := 0; i <= en.Config().InitSize; i++ {
		u, err := en.Observe(xs[i%len(xs)])
		if err != nil {
			t.Fatal(err)
		}
		publishRow(inst, en, u)
	}
	if !en.Ready() {
		t.Fatal("engine not ready after warm-up")
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		u, _ := en.Observe(xs[i%len(xs)])
		publishRow(inst, en, u)
		i++
	})
	if allocs != 0 {
		t.Fatalf("instrumented Observe allocated %v times per run", allocs)
	}
}

// TestInstrumentedObserveBlockZeroAllocs mirrors the block-path contract
// with the per-frame publish.
func TestInstrumentedObserveBlockZeroAllocs(t *testing.T) {
	const d, batch = 80, 16
	en := newEngine(t, d)
	inst := obs.NewSet().Engine(0)
	warm := signalRows(t, d, en.Config().InitSize+8, 9)
	us, err := en.ObserveBlock(warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	publishBlock(inst, en, us)
	if !en.Ready() {
		t.Fatal("engine not ready after warm-up")
	}
	rows := signalRows(t, d, 8*batch, 47)
	blocks := make([][][]float64, 8)
	for b := range blocks {
		blocks[b] = rows[b*batch : (b+1)*batch]
	}
	buf := make([]core.Update, 0, batch)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = en.ObserveBlock(blocks[i%len(blocks)], buf[:0])
		publishBlock(inst, en, buf)
		i++
	})
	if allocs != 0 {
		t.Fatalf("instrumented ObserveBlock allocated %v times per run", allocs)
	}
}
