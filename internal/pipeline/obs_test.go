package pipeline

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"streampca/internal/fault"
	"streampca/internal/obs"
	"streampca/internal/spectra"
	"streampca/internal/stream"
	"streampca/internal/syncctl"
)

// TestPipelineThreadsObservability runs an instrumented parallel pipeline and
// checks every layer reported: operator histograms from the stream runtime,
// algorithm gauges from the engines, sync telemetry from the controller, and
// sync/init events in the journal. It is the end-to-end contract for
// Config.Obs.
func TestPipelineThreadsObservability(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) { testPipelineThreadsObservability(t, batch) })
	}
}

func testPipelineThreadsObservability(t *testing.T, batch int) {
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 21, OutlierRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	set := obs.NewSet()
	res, err := Run(context.Background(), Config{
		Engine:       engineConfig(40, 3, 300),
		NumEngines:   3,
		Source:       signalSource(gen, 12000),
		Batch:        batch,
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Obs:          set,
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := set.Snapshot()

	// Stream layer: every graph node recorded Process latencies and counters.
	ops := make(map[string]obs.OpSnapshot, len(snap.Operators))
	for _, op := range snap.Operators {
		ops[op.Name] = op
	}
	for _, name := range []string{"source", "pca0", "pca1", "pca2", "sink"} {
		op, ok := ops[name]
		if !ok {
			t.Fatalf("operator %q missing from snapshot (have %d ops)", name, len(snap.Operators))
		}
		if name != "source" && op.Latency.Count == 0 {
			t.Errorf("operator %q recorded no latency samples", name)
		}
		if op.Counters == nil {
			t.Errorf("operator %q has no runtime counters", name)
		}
	}
	if ops["source"].Counters.TuplesOut != res.TuplesIn {
		t.Errorf("source counters sent %d tuples, run emitted %d",
			ops["source"].Counters.TuplesOut, res.TuplesIn)
	}

	// Algorithm layer: each engine published σ², eigenvalues and tallies that
	// equal the run's own stats, warm-up rows included.
	if len(snap.Engines) != 3 {
		t.Fatalf("snapshot has %d engines, want 3", len(snap.Engines))
	}
	stats := make(map[int]EngineStats, len(res.Engines))
	for _, st := range res.Engines {
		stats[st.Engine] = st
	}
	for _, es := range snap.Engines {
		if es.Sigma2 <= 0 {
			t.Errorf("engine %d: sigma2 gauge = %g", es.Index, es.Sigma2)
		}
		if len(es.Eigenvalues) == 0 {
			t.Errorf("engine %d published no eigenvalues", es.Index)
		}
		st := stats[es.Index]
		if es.Observations != st.Processed || es.Outliers != st.Outliers {
			t.Errorf("engine %d: observations=%d outliers=%d, stats processed=%d outliers=%d",
				es.Index, es.Observations, es.Outliers, st.Processed, st.Outliers)
		}
	}

	// Control plane: the controller planned rounds and the engines journaled
	// their send/skip decisions against the 1.5·N threshold.
	if snap.Sync.Rounds == 0 {
		t.Error("controller recorded no sync rounds")
	}
	var sends, inits int
	for _, ev := range set.Journal().Events(0) {
		switch ev.Kind {
		case obs.EvSyncSend:
			sends++
			if ev.B <= 0 {
				t.Errorf("sync-send event with threshold %g", ev.B)
			}
		case obs.EvEngineInit:
			inits++
		}
	}
	var wantSends int64
	for _, st := range res.Engines {
		wantSends += st.SnapshotsSent
	}
	if int64(sends) != wantSends {
		t.Errorf("journal has %d sync-send events, engines sent %d", sends, wantSends)
	}
	if inits != 3 {
		t.Errorf("journal has %d engine-init events, want 3", inits)
	}
}

// TestOperatorPublishesEngineGauges: an instrumented engine operator
// publishes the engine's σ², spectrum and since-sync count from its frame
// path, and absorbs ready frames without allocating.
func TestOperatorPublishesEngineGauges(t *testing.T) {
	const d, batch = 80, 16
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: d, Signals: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	src := signalSource(gen, 1<<20)
	frame := func() stream.Frame {
		ts := make([]stream.Tuple, batch)
		for i := range ts {
			ts[i].Vec, _, _ = src()
		}
		return stream.Frame{Tuples: ts}
	}
	set := obs.NewSet()
	cfg := engineConfig(d, 3, 500)
	cfg.Extra, cfg.ReorthEvery = 2, 32
	op, err := newPCAOperator(0, cfg, 1.5, set)
	if err != nil {
		t.Fatal(err)
	}
	for !op.engine.Ready() {
		op.observeFrame(frame())
	}
	op.observeFrame(frame())

	inst := set.Engine(0)
	st := op.engine.Eigensystem()
	if got := inst.Sigma2.Get(); got <= 0 || got != st.Sigma2 {
		t.Errorf("sigma2 gauge = %g, engine = %g", got, st.Sigma2)
	}
	if got := inst.SinceSync.Get(); got != float64(op.engine.SinceSync()) {
		t.Errorf("since-sync gauge = %g, engine = %d", got, op.engine.SinceSync())
	}
	if vals := inst.Eigenvalues(); !slices.Equal(vals, st.Values) {
		t.Errorf("eigenvalue gauges = %v, engine = %v", vals, st.Values)
	}
	if p := cfg.Components; inst.Eigengap.Get() != st.Values[p-1]-st.Values[p] {
		t.Errorf("eigengap gauge = %g, engine values %v", inst.Eigengap.Get(), st.Values)
	}
	if got := inst.Observations.Load(); got != op.processed {
		t.Errorf("observations = %d, operator processed %d", got, op.processed)
	}
	evs := set.Journal().Events(0)
	if len(evs) != 1 || evs[0].Kind != obs.EvEngineInit ||
		evs[0].N != int64(op.engine.Config().InitSize) || evs[0].A <= 0 {
		t.Errorf("journal = %+v, want one engine-init event after %d rows", evs, op.engine.Config().InitSize)
	}

	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	frames := make([]stream.Frame, 8)
	for i := range frames {
		frames[i] = frame()
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		op.observeFrame(frames[i%len(frames)])
		i++
	}); allocs != 0 {
		t.Fatalf("instrumented frame path allocated %v times per frame", allocs)
	}
}

// TestPipelineJournalsFailureRecovery: with chaos and obs both on, a crash
// and checkpoint-revival leave the full event trail — checkpoint writes, the
// node failure, the revival, and the checkpoint restore.
func TestPipelineJournalsFailureRecovery(t *testing.T) {
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 30, Signals: 3, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	set := obs.NewSet()
	res, err := Run(context.Background(), Config{
		Engine:     engineConfig(30, 3, 500),
		NumEngines: 2,
		Source:     slowSource(signalSource(gen, 4000), time.Millisecond),
		Obs:        set,
		Chaos: &ChaosConfig{
			Engine:          map[int]fault.Plan{1: {PanicAfter: 600}},
			RestartAfter:    time.Millisecond,
			CheckpointEvery: 100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Skip("engine was not revived before end of stream")
	}
	counts := map[obs.EventKind]int{}
	for _, ev := range set.Journal().Events(0) {
		counts[ev.Kind]++
	}
	for _, kind := range []obs.EventKind{
		obs.EvCheckpointWrite, obs.EvNodeFailure, obs.EvNodeRevive, obs.EvCheckpointRestore,
	} {
		if counts[kind] == 0 {
			t.Errorf("journal has no %v events (counts: %v)", kind, counts)
		}
	}
}

// slowSource throttles a Source (one sleep per 16 tuples, so timer
// granularity doesn't balloon the test) so revival timers get a chance to
// fire before the stream drains.
func slowSource(src Source, d time.Duration) Source {
	var i int
	return func() ([]float64, []bool, bool) {
		if i++; i%16 == 0 {
			time.Sleep(d)
		}
		return src()
	}
}

// TestOperatorJournalsScaleRescue: a regime change the engine's weights reject
// wholesale fires its scale-collapse rescue, and the operator journals each
// frame in which Engine.Rescues rose. After a restore the replacement engine
// counts from zero, and its first rescue is journaled too.
func TestOperatorJournalsScaleRescue(t *testing.T) {
	const d = 20
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: d, Signals: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set := obs.NewSet()
	op, err := newPCAOperator(1, engineConfig(d, 2, 500), 1.5, set)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(scale float64) stream.Frame {
		ts := make([]stream.Tuple, 16)
		for i := range ts {
			x, _ := gen.Next()
			for j := range x {
				x[j] *= scale
			}
			ts[i].Vec = x
		}
		return stream.Frame{Tuples: ts}
	}
	warm := func() {
		for i := 0; i < 40; i++ {
			op.observeFrame(frame(1))
		}
	}
	// rescue feeds frames at scale until the engine's rescue count rises,
	// then checks that the newest scale-rescue event carries the new count.
	rescue := func(scale float64) {
		before := op.engine.Rescues()
		for i := 0; i < 40 && op.engine.Rescues() == before; i++ {
			op.observeFrame(frame(scale))
		}
		if op.engine.Rescues() == before {
			t.Fatalf("no rescue at scale %g", scale)
		}
		var last obs.Event
		for _, ev := range set.Journal().Events(0) {
			if ev.Kind == obs.EvScaleRescue {
				last = ev
			}
		}
		if last.Kind != obs.EvScaleRescue || last.Engine != 1 || last.N != op.engine.Rescues() || last.A <= 0 {
			t.Fatalf("last scale-rescue event = %+v, engine rescues = %d", last, op.engine.Rescues())
		}
	}
	warm()
	rescue(1e6)
	rescue(1e12)
	op.restore() // no checkpoint: a cold replacement engine
	warm()
	rescue(1e6)
}
