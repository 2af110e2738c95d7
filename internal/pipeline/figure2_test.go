package pipeline

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/spectra"
)

// emptySource is an already exhausted stream.
func emptySource() ([]float64, []bool, bool) { return nil, nil, false }

// opsByName indexes a set's operator snapshots.
func opsByName(set *obs.Set) map[string]obs.OpSnapshot {
	ops := map[string]obs.OpSnapshot{}
	for _, op := range set.Snapshot().Operators {
		ops[op.Name] = op
	}
	return ops
}

// TestCoordinatorExposesOpCounters: the distributed runtime instruments its
// graphs through the same path as Run, so a coordinator's and a worker's
// /metrics.json carry the live per-operator counters, not just histograms.
func TestCoordinatorExposesOpCounters(t *testing.T) {
	const n, tuples = 2, 4000
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	workerSets := make([]*obs.Set, n)
	addrs := make([]string, n)
	done := make(chan error, n)
	for i := range addrs {
		workerSets[i] = obs.NewSet()
		ready := make(chan net.Addr, 1)
		go func() {
			done <- RunWorker(ctx, "127.0.0.1:0", 1, WorkerConfig{
				Engine: engineConfig(40, 3, 150), Batch: 32, Obs: workerSets[i],
			}, func(a net.Addr) { ready <- a })
		}()
		select {
		case a := <-ready:
			addrs[i] = a.String()
		case err := <-done:
			t.Fatalf("worker %d exited before listening: %v", i, err)
		}
	}

	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	set := obs.NewSet()
	res, err := RunCoordinator(ctx, DistConfig{
		Engine:  engineConfig(40, 3, 150),
		Workers: addrs,
		Source:  signalSource(gen, tuples),
		Batch:   32,
		Retry:   distRetry,
		Obs:     set,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	ops := opsByName(set)
	for _, name := range []string{"split", "wire-send-0"} {
		if c := ops[name].Counters; c == nil || c.TuplesIn <= 0 {
			t.Errorf("coordinator operator %q: counters = %+v, want tuples_in > 0", name, c)
		}
	}
	if got := ops["split"].Counters; got != nil && got.TuplesIn != res.TuplesIn {
		t.Errorf("split counted %d tuples, run emitted %d", got.TuplesIn, res.TuplesIn)
	}
	for i, ws := range workerSets {
		if c := opsByName(ws)[fmt.Sprintf("pca%d", i)].Counters; c == nil || c.TuplesIn <= 0 {
			t.Errorf("worker %d engine operator: counters = %+v, want tuples_in > 0", i, c)
		}
	}
}

// TestRunnersShareNormalisation: Run and RunCoordinator reject the same bad
// inputs with the same errors, and every Buffer/Batch pair maps to one node
// queue depth because both go through newPlan.
func TestRunnersShareNormalisation(t *testing.T) {
	ctx := context.Background()
	good := engineConfig(8, 2, 50)
	for _, tc := range []struct {
		name   string
		source Source
		engine core.Config
	}{
		{"nil source", nil, good},
		{"invalid engine", emptySource, core.Config{Dim: -1, Components: 1}},
	} {
		_, runErr := Run(ctx, Config{Source: tc.source, Engine: tc.engine})
		_, distErr := RunCoordinator(ctx, DistConfig{
			Source: tc.source, Engine: tc.engine, Workers: []string{"127.0.0.1:1"},
		})
		if runErr == nil || distErr == nil || runErr.Error() != distErr.Error() {
			t.Errorf("%s: Run error %v, RunCoordinator error %v; want the same error", tc.name, runErr, distErr)
		}
	}
	if _, err := RunCoordinator(ctx, DistConfig{Source: emptySource, Engine: good}); err == nil {
		t.Error("RunCoordinator with no workers should error")
	}
	res, err := Run(ctx, Config{Source: emptySource, Engine: good, NumEngines: -3})
	if err != nil || len(res.Engines) != 1 {
		t.Errorf("NumEngines ≤ 0 should mean one engine: %d engines, err %v", len(res.Engines), err)
	}

	for _, tc := range []struct{ batch, wantBatch, wantNodeBuf int }{
		{0, 1, 64}, {1, 1, 64},
		// A queued message holds a whole frame, so depth shrinks by the
		// batch factor, floored at two frames.
		{64, 64, 2}, {8, 8, 8}, {5, 5, 13},
	} {
		p, err := newPlan(Config{Source: emptySource, Engine: good, Batch: tc.batch})
		if err != nil {
			t.Fatal(err)
		}
		if p.batch != tc.wantBatch || p.nodeBuf != tc.wantNodeBuf {
			t.Errorf("Batch %d: batch %d nodeBuf %d, want %d and %d",
				tc.batch, p.batch, p.nodeBuf, tc.wantBatch, tc.wantNodeBuf)
		}
	}
}

// TestWireLaneDepthFromBytes: a wire lane holds one socket buffer of frames,
// whatever the engine's chunk width, so refitting the width cannot resize
// the coordinator's queues. The benchmark's wire-d400 configuration (d=400,
// Batch 64, default Buffer) gets 6-frame lanes and 12-deep sync queues.
func TestWireLaneDepthFromBytes(t *testing.T) {
	queues := func(blockSize, dim, batch int) [2]int {
		eng := core.Config{Dim: dim, Components: 5, Alpha: 1 - 1.0/5000, BlockSize: blockSize}
		p, err := newPlan(Config{Source: emptySource, Engine: eng, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		wireBuf, syncBuf := wireQueues(p)
		return [2]int{wireBuf, syncBuf}
	}
	for _, tc := range []struct{ dim, batch int }{{400, 64}, {400, 32}, {1000, 64}, {16, 0}} {
		if a, b := queues(2, tc.dim, tc.batch), queues(16, tc.dim, tc.batch); a != b {
			t.Errorf("d=%d Batch %d: queues %v at BlockSize 2, %v at 16", tc.dim, tc.batch, a, b)
		}
	}
	if got := queues(0, 400, 64); got != [2]int{6, 12} {
		t.Errorf("wire-d400 queues = %v, want [6 12]", got)
	}
	for _, tc := range []struct{ dim, batch, want int }{
		{400, 64, 6}, {400, 32, 11}, {1000, 64, 4}, {400, 1, 64}, {16, 64, 64},
	} {
		if got := wireLaneFrames(tc.dim, tc.batch); got != tc.want {
			t.Errorf("wireLaneFrames(%d, %d) = %d, want %d", tc.dim, tc.batch, got, tc.want)
		}
	}
}

// TestEdgeOptionsCork: Batch/FlushEvery is the one batching control — the
// wire cork is derived from the flush deadline under batched transport and
// off without it.
func TestEdgeOptionsCork(t *testing.T) {
	for _, tc := range []struct {
		batch int
		flush time.Duration
		want  time.Duration
	}{
		{64, 0, corkFromFlush(2 * time.Millisecond)},
		{64, 400 * time.Microsecond, corkFromFlush(400 * time.Microsecond)},
		{64, 20 * time.Millisecond, corkFromFlush(20 * time.Millisecond)},
		{1, 0, 0},
		{0, 5 * time.Millisecond, 0},
	} {
		p, err := newPlan(Config{
			Source: emptySource, Engine: engineConfig(8, 2, 50), NumEngines: 2,
			Batch: tc.batch, FlushEvery: tc.flush,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := edgeOptions(p, &DistConfig{}, 1, 16)
		if opt.Cork != tc.want {
			t.Errorf("Batch %d, FlushEvery %v: Cork = %v, want %v", tc.batch, tc.flush, opt.Cork, tc.want)
		}
		if opt.Hello.Engine != 1 || opt.Hello.Batch != p.batch {
			t.Errorf("Batch %d: hello = %+v", tc.batch, opt.Hello)
		}
	}
	if got := corkFromFlush(2 * time.Millisecond); got != 250*time.Microsecond {
		t.Errorf("corkFromFlush(2ms) = %v, want 250µs", got)
	}
}
