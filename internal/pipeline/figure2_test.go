package pipeline

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/spectra"
	"streampca/internal/stream"
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
	if c := ops["source"].Counters; c == nil || c.TuplesOut <= 0 {
		t.Errorf("coordinator source: counters = %+v, want tuples_out > 0", c)
	} else if c.TuplesOut != res.TuplesIn {
		t.Errorf("source counted %d tuples, run emitted %d", c.TuplesOut, res.TuplesIn)
	}
	if c := ops["wire-send-0"].Counters; c == nil || c.TuplesIn <= 0 {
		t.Errorf("coordinator operator %q: counters = %+v, want tuples_in > 0", "wire-send-0", c)
	}
	for i, ws := range workerSets {
		wops := opsByName(ws)
		if c := wops[fmt.Sprintf("pca%d", i)].Counters; c == nil || c.TuplesIn <= 0 {
			t.Errorf("worker %d engine operator: counters = %+v, want tuples_in > 0", i, c)
		}
		// The engine's report and snapshots go straight to the edge.
		if _, ok := wops["wire-send"]; !ok {
			t.Errorf("worker %d graph has no wire-send node", i)
		}
		if _, ok := wops["wire-report"]; ok {
			t.Errorf("worker %d graph still has a wire-report node", i)
		}
	}
}

// TestSourceRoutesThroughSplit: the source runs the split in line, so every
// frame leaves on the port a fresh stream.Split with the same seed picks for
// the same message sequence, and every checkpoint barrier reaches all ports.
func TestSourceRoutesThroughSplit(t *testing.T) {
	const n, dim, rows, batch, barrierEvery, seed = 3, 4, 50, 2, 7, 11
	type sent struct {
		port int
		msg  stream.Message
	}
	var got []sent
	record := func(port int, msg stream.Message) { got = append(got, sent{port, msg}) }
	left := rows
	src := func() ([]float64, []bool, bool) {
		if left--; left < 0 {
			return nil, nil, false
		}
		return make([]float64, dim), nil, true
	}
	var tuplesIn int64
	run := sourceFunc(src, dim, batch, time.Hour, func() *stream.FrameStore {
		return stream.NewFrameStore(dim, batch)
	}, &tuplesIn, barrierEvery, &stream.Split{N: n, Seed: seed})
	if err := run(context.Background(), record); err != nil {
		t.Fatal(err)
	}
	if tuplesIn != rows {
		t.Fatalf("tuplesIn = %d, want %d", tuplesIn, rows)
	}

	// Replay the source's messages through a reference split: frames one
	// record each, barriers one record per port.
	ref := &stream.Split{N: n, Seed: seed}
	var want []int // the reference split's port for each record
	var framesOn [n]int
	var tuples int
	barriers := map[int64][]int{}
	for i := 0; i < len(got); i = len(want) {
		ref.Process(0, got[i].msg, func(port int, _ stream.Message) { want = append(want, port) })
		if len(want) > len(got) {
			t.Fatalf("source sent %d messages, reference split sends at least %d", len(got), len(want))
		}
		for j := i; j < len(want); j++ {
			if got[j].port != want[j] {
				t.Fatalf("message %d: source sent it to port %d, reference split to %d", j, got[j].port, want[j])
			}
			switch m := got[j].msg.(type) {
			case stream.Frame:
				framesOn[got[j].port]++
				tuples += len(m.Tuples)
			case stream.Barrier:
				barriers[m.Epoch] = append(barriers[m.Epoch], got[j].port)
			}
		}
	}
	if tuples != rows {
		t.Fatalf("frames carried %d tuples, want %d", tuples, rows)
	}
	for p, f := range framesOn {
		if f == 0 {
			t.Errorf("port %d received no frame", p)
		}
	}
	if len(barriers) != rows/barrierEvery {
		t.Fatalf("%d barrier epochs, want %d", len(barriers), rows/barrierEvery)
	}
	for epoch, ports := range barriers {
		if !slices.Equal(ports, []int{0, 1, 2}) {
			t.Errorf("barrier %d reached ports %v, want all three", epoch, ports)
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
// so its depth follows the frame's bytes (dim × Batch). The benchmark's
// wire-d400 configuration (d=400, Batch 64, default Buffer) gets 6-frame
// lanes and 12-deep sync queues.
func TestWireLaneDepthFromBytes(t *testing.T) {
	eng := core.Config{Dim: 400, Components: 5, Alpha: 1 - 1.0/5000}
	p, err := newPlan(Config{Source: emptySource, Engine: eng, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if wireBuf, syncBuf := wireQueues(p); wireBuf != 6 || syncBuf != 12 {
		t.Errorf("wire-d400 queues = [%d %d], want [6 12]", wireBuf, syncBuf)
	}
	for _, tc := range []struct{ dim, batch, want int }{
		{400, 64, 6}, {400, 32, 11}, {1000, 64, 4}, {400, 1, 64}, {16, 64, 64},
	} {
		if got := wireLaneFrames(tc.dim, tc.batch); got != tc.want {
			t.Errorf("wireLaneFrames(%d, %d) = %d, want %d", tc.dim, tc.batch, got, tc.want)
		}
	}
}
