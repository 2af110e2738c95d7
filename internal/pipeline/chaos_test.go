package pipeline

import (
	"context"
	"testing"
	"time"

	"streampca/internal/fault"
	"streampca/internal/mat"
	"streampca/internal/spectra"
	"streampca/internal/syncctl"
)

// TestChaosDropLogged: an edge drop plan produces a non-empty deterministic
// fault log and the dropped tuples show up in the source's stream metrics
// (a tap's drops are charged to the edge's sender).
func TestChaosDropLogged(t *testing.T) {
	run := func() *Result {
		gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 30, Signals: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Config{
			Engine:     engineConfig(30, 3, 500),
			NumEngines: 2,
			Source:     signalSource(gen, 3000),
			Chaos: &ChaosConfig{
				Edge: map[int]fault.Plan{
					0: {Seed: 11, Drop: 0.1},
					1: {Seed: 12, Drop: 0.05, Duplicate: 0.05},
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.FaultLog == "" {
		t.Fatal("chaos run produced an empty fault log")
	}
	var injected int64
	for _, m := range res.Metrics {
		if m.Name == "source" {
			injected = m.Dropped
		}
	}
	if injected == 0 {
		t.Fatal("injected drops not visible in source metrics")
	}
	if res.Engines[0].Processed+res.Engines[1].Processed >= res.TuplesIn {
		t.Fatalf("processed %d+%d with drops injected, source emitted %d",
			res.Engines[0].Processed, res.Engines[1].Processed, res.TuplesIn)
	}
	if again := run(); again.FaultLog != res.FaultLog {
		t.Fatal("same-seed chaos runs produced different fault logs")
	}
}

// TestChaosCrashWithoutRestart: a crashed engine must not hang the run even
// with a live sync ticker — the flush-based sink cancel terminates the graph
// — and the failure is reported.
func TestChaosCrashWithoutRestart(t *testing.T) {
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 30, Signals: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Engine:       engineConfig(30, 3, 500),
		NumEngines:   3,
		Source:       signalSource(gen, 3000),
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Chaos: &ChaosConfig{
			Engine: map[int]fault.Plan{1: {PanicAfter: 200}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(res.Failures))
	}
	if res.Failures[0].Name != "pca1" {
		t.Fatalf("failed node %q, want pca1", res.Failures[0].Name)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d without RestartAfter", res.Restarts)
	}
	// The crashed engine never flushed, so its slot is zero-valued.
	if res.Engines[1].Processed != 0 || res.Engines[1].Final != nil {
		t.Fatal("crashed engine without restart still reported results")
	}
	for _, i := range []int{0, 2} {
		if res.Engines[i].Processed == 0 {
			t.Fatalf("surviving engine %d processed nothing", i)
		}
	}
}

// TestChaosBatchedTransport: fault injection composes with micro-batched
// transport. Injectors act on whole frames — a dropped frame loses its whole
// batch, a duplicated one replays it from its own copy — and a crashed
// engine still recovers from its checkpoint. PanicAfter counts messages, so
// the crash point is expressed in frames here, not tuples.
func TestChaosBatchedTransport(t *testing.T) {
	const batch = 16
	run := func() *Result {
		gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 30, Signals: 3, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Pause the source after the crash point so the restart timer fires
		// with stream remaining (engine 1's ~40th frame lands near global
		// tuple 1900 of 6000).
		inner := signalSource(gen, 6000)
		var seq int64
		src := func() ([]float64, []bool, bool) {
			seq++
			if seq == 4000 {
				time.Sleep(20 * time.Millisecond)
			}
			return inner()
		}
		res, err := Run(context.Background(), Config{
			Engine:     engineConfig(30, 3, 500),
			NumEngines: 3,
			Source:     src,
			Batch:      batch,
			// Frames must always fill completely: a deadline-flushed partial
			// frame would shift every later frame boundary and perturb the
			// per-message fault schedule this test asserts is deterministic.
			FlushEvery:   time.Minute,
			SyncEvery:    2 * time.Millisecond,
			SyncStrategy: syncctl.Ring,
			Seed:         9,
			Chaos: &ChaosConfig{
				Edge: map[int]fault.Plan{
					0: {Seed: 13, Drop: 0.1, Duplicate: 0.05, Reorder: 0.05},
				},
				Engine:          map[int]fault.Plan{1: {PanicAfter: 40}},
				RestartAfter:    time.Millisecond,
				CheckpointEvery: 200,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if len(res.Failures) != 1 || res.Failures[0].Name != "pca1" {
		t.Fatalf("failures = %+v, want exactly pca1", res.Failures)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	st := res.Engines[1]
	if !st.ResumedFromCheckpoint {
		t.Fatal("engine restarted cold despite checkpoints every 200 observations")
	}
	// The wrapper panics on engine 1's 40th message, capping pre-crash
	// progress at 40 frames; anything beyond proves post-restart progress.
	if st.Processed <= 40*batch {
		t.Fatalf("revived engine processed %d tuples, no post-restart progress", st.Processed)
	}
	var dropped int64
	for _, m := range res.Metrics {
		if m.Name == "source" {
			dropped = m.Dropped
		}
	}
	if dropped == 0 {
		t.Fatal("frame drops not visible in source metrics")
	}
	var processed int64
	for _, eng := range res.Engines {
		processed += eng.Processed
	}
	// Engine 0's edge drops whole frames, so hundreds of tuples must be gone
	// (10% of ~125 16-tuple frames), not a handful.
	if processed >= res.TuplesIn-100 {
		t.Fatalf("processed %d of %d: whole-frame drops not taking effect", processed, res.TuplesIn)
	}
	if res.Merged == nil {
		t.Fatal("batched chaos run produced no merged eigensystem")
	}
	if again := run(); again.FaultLog != res.FaultLog {
		t.Fatal("same-seed batched chaos runs produced different fault logs")
	}
}

// TestChaosBatchedGappyDuplication: gappy frames under duplication and
// reordering. The replays must show up as extra processed tuples and the run
// must still converge, deterministically.
func TestChaosBatchedGappyDuplication(t *testing.T) {
	var truth *mat.Dense
	run := func() *Result {
		gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
			Grid: spectra.SDSSGrid(120), Rank: 3, Seed: 6, GapRate: 0.3, NoiseSigma: 0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		truth = gen.TrueBasis()
		cfg := engineConfig(120, 3, 500)
		cfg.Extra = 2
		res, err := Run(context.Background(), Config{
			Engine:     cfg,
			NumEngines: 2,
			Source:     spectraSource(gen, 8000),
			Batch:      16,
			FlushEvery: time.Minute, // full frames only: a deterministic fault schedule
			Seed:       9,
			Chaos: &ChaosConfig{Edge: map[int]fault.Plan{
				0: {Seed: 21, Duplicate: 0.2},
				1: {Seed: 22, Duplicate: 0.2, Reorder: 0.05},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	var processed int64
	for _, eng := range res.Engines {
		processed += eng.Processed
	}
	if processed < res.TuplesIn+500 {
		t.Fatalf("processed %d of %d pulled: duplicated frames were not replayed", processed, res.TuplesIn)
	}
	if aff := res.Merged.SubspaceAffinity(truth); aff < 0.85 {
		t.Fatalf("gappy run under duplication: affinity %v", aff)
	}
	if again := run(); again.FaultLog != res.FaultLog {
		t.Fatal("same-seed gappy chaos runs produced different fault logs")
	}
}

// TestChaosDuplicatedFramesArePooled: chaos runs keep the frame pool, so
// duplication must hand each delivery its own owner. With every gappy frame
// duplicated on every edge, each engine absorbs exactly twice what it absorbs
// in the same run without faults; a duplicate sharing the original's pooled
// store would see it recycled and refilled under its feet (the race detector
// flags it too).
func TestChaosDuplicatedFramesArePooled(t *testing.T) {
	const engines = 3
	for _, batch := range []int{16, 64} {
		run := func(chaos *ChaosConfig) *Result {
			gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
				Grid: spectra.SDSSGrid(120), Rank: 3, Seed: 4, GapRate: 0.3, NoiseSigma: 0.02,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := engineConfig(120, 3, 500)
			cfg.Extra = 2
			res, err := Run(context.Background(), Config{
				Engine:     cfg,
				NumEngines: engines,
				Source:     spectraSource(gen, 4000),
				Batch:      batch,
				FlushEvery: time.Hour, // full frames only: identical splits in both runs
				Seed:       3,
				Chaos:      chaos,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		clean := run(nil)
		plans := map[int]fault.Plan{}
		for i := range engines {
			plans[i] = fault.Plan{Seed: uint64(40 + i), Duplicate: 1}
		}
		dup := run(&ChaosConfig{Edge: plans})
		for i := range engines {
			c, d := clean.Engines[i].Processed, dup.Engines[i].Processed
			if c == 0 || d != 2*c {
				t.Fatalf("batch %d engine %d: processed %d under duplication, want 2×%d", batch, i, d, c)
			}
		}
	}
}

// TestChaosCrashRestartResumes: with RestartAfter set, the crashed engine is
// revived from its in-memory checkpoint, rejoins the run, and reports final
// results that include pre-crash state.
func TestChaosCrashRestartResumes(t *testing.T) {
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 30, Signals: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Pause the source well after the crash point (engine 1's 600th tuple
	// lands near global tuple 1800 of 4000) so the restart timer is certain
	// to fire while plenty of stream remains for the revived engine.
	inner := signalSource(gen, 4000)
	var seq int64
	src := func() ([]float64, []bool, bool) {
		seq++
		if seq == 2800 {
			time.Sleep(20 * time.Millisecond)
		}
		return inner()
	}
	res, err := Run(context.Background(), Config{
		Engine:       engineConfig(30, 3, 500),
		NumEngines:   3,
		Source:       src,
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Chaos: &ChaosConfig{
			Engine:          map[int]fault.Plan{1: {PanicAfter: 600}},
			RestartAfter:    time.Millisecond,
			CheckpointEvery: 100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(res.Failures))
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	st := res.Engines[1]
	if st.Final == nil {
		t.Fatal("restarted engine reported no final eigensystem")
	}
	if st.Restarts != 1 {
		t.Fatalf("engine restarts = %d, want 1", st.Restarts)
	}
	if !st.ResumedFromCheckpoint {
		t.Fatal("engine restarted cold despite having a checkpoint")
	}
	// p.processed stops at 599 when the wrapper panics on message 600; any
	// count beyond that proves the revived engine processed fresh tuples.
	if st.Processed <= 600 {
		t.Fatalf("revived engine processed %d tuples, no post-restart progress", st.Processed)
	}
}
