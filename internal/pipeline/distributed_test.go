package pipeline

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"streampca/internal/cluster"
	"streampca/internal/ingest"
	"streampca/internal/obs"
	"streampca/internal/spectra"
	"streampca/internal/syncctl"
	"streampca/internal/wire"
)

// TestMain is the harness re-exec hook: LaunchWorkers spawns this very test
// binary with WorkerEnv set, and the child must become a wire worker instead
// of running the test suite.
func TestMain(m *testing.M) {
	if ran, err := WorkerFromEnv(context.Background()); ran {
		if err != nil {
			fmt.Fprintln(os.Stderr, "wire worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distRetry keeps reconnect latency low enough for tests while never giving
// up inside a chaos partition window.
var distRetry = ingest.RetryPolicy{
	MaxAttempts: 60,
	Base:        time.Millisecond,
	Cap:         50 * time.Millisecond,
	Factor:      2,
	Jitter:      0.2,
}

// launchCluster boots n worker processes serving one session each and
// registers cleanup.
func launchCluster(t *testing.T, n int, spec WorkerSpec) *Cluster {
	t.Helper()
	if spec.Sessions == 0 {
		spec.Sessions = 1
	}
	cl, err := LaunchWorkers(context.Background(), n, spec)
	if err != nil {
		t.Fatalf("launch workers: %v", err)
	}
	t.Cleanup(cl.Shutdown)
	return cl
}

// TestDistributedFourWorkers is the multi-process analogue of
// TestParallelPipelineWithRingSync: the same graph, but every engine lives
// in its own OS process behind a TCP edge. The run must be lossless, the
// sync fabric must move snapshots through the coordinator's router, and
// every engine (and the merged system) must find the planted subspace.
func TestDistributedFourWorkers(t *testing.T) {
	const n, tuples = 4, 20000
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl := launchCluster(t, n, WorkerSpec{Dim: 40, Components: 3, Alpha: 1 - 1.0/150, Batch: 32})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Sync-plane timing: the tick must exceed the two-hop snapshot latency
	// (worker → coordinator → worker), or the next round's control beats
	// the previous snapshot to its receiver, which then resets its own
	// window and refuses the merge. Broadcast gives every send three
	// receivers, so merges survive the double-sided 1.5·N criterion's
	// phase alignment reliably enough to assert on.
	res, err := RunCoordinator(ctx, DistConfig{
		Engine:       engineConfig(40, 3, 150),
		Workers:      cl.Addrs,
		Source:       signalSource(gen, tuples),
		SyncEvery:    8 * time.Millisecond,
		SyncStrategy: syncctl.Broadcast,
		Seed:         7,
		Batch:        32,
		BarrierEvery: 2500,
		Retry:        distRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != tuples {
		t.Fatalf("TuplesIn = %d, want %d", res.TuplesIn, tuples)
	}
	var processed, syncsSent, merges int64
	for _, st := range res.Engines {
		processed += st.Processed
		syncsSent += st.SnapshotsSent
		merges += st.MergesApplied
		if st.Final == nil {
			t.Fatalf("engine %d never reported a final eigensystem", st.Engine)
		}
	}
	if processed != tuples {
		t.Fatalf("processed %d/%d", processed, tuples)
	}
	if syncsSent == 0 {
		t.Fatal("no synchronizations crossed the wire")
	}
	if merges == 0 {
		t.Fatal("no merges applied")
	}
	truth := gen.TrueBasis()
	if aff := res.Merged.SubspaceAffinity(truth); aff < 0.9 {
		t.Fatalf("merged affinity = %v", aff)
	}
	for _, st := range res.Engines {
		if aff := st.Final.SubspaceAffinity(truth); aff < 0.8 {
			t.Fatalf("engine %d affinity = %v", st.Engine, aff)
		}
	}
	// Transport accounting: a clean run reconnects never, ships every tuple
	// exactly once, and the per-edge counters agree with the split.
	var sent int64
	for i, ws := range res.Wire {
		if ws.Reconnects != 0 {
			t.Fatalf("edge %d reconnected %d times on a clean network", i, ws.Reconnects)
		}
		if ws.MsgsRecv == 0 {
			t.Fatalf("edge %d never received worker traffic", i)
		}
		sent += ws.TuplesSent
	}
	if sent != tuples {
		t.Fatalf("edges sent %d tuples, split produced %d", sent, tuples)
	}
}

// TestDistributedDropsOnlyMalformedRows pins that a malformed row costs the
// same over TCP as in process — that row and nothing else. The packer drops a
// row whose mask has the wrong length before it joins a frame, so no edge
// ever has an unencodable message to abandon, for frames of one (Batch 0)
// and batched frames alike.
func TestDistributedDropsOnlyMalformedRows(t *testing.T) {
	const n, dim = 4000, 20
	source := func() Source {
		gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: dim, Signals: 2, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		inner, i := signalSource(gen, n), 0
		return func() ([]float64, []bool, bool) {
			vec, mask, ok := inner()
			if i++; i%100 == 0 {
				mask = make([]bool, 7)
			}
			return vec, mask, ok
		}
	}
	processed := func(res *Result) (sum int64) {
		for _, st := range res.Engines {
			sum += st.Processed
		}
		return sum
	}
	const want = n - n/100
	for _, batch := range []int{0, 16} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			local, err := Run(ctx, Config{
				Engine: engineConfig(dim, 2, 300), NumEngines: 2, Source: source(), Batch: batch, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			cl := launchCluster(t, 2, WorkerSpec{Dim: dim, Components: 2, Alpha: 1 - 1.0/300, Batch: batch})
			dist, err := RunCoordinator(ctx, DistConfig{
				Engine: engineConfig(dim, 2, 300), Workers: cl.Addrs, Source: source(), Batch: batch, Seed: 3,
				Retry: distRetry,
			})
			if err != nil {
				t.Fatal(err)
			}
			if l, d := processed(local), processed(dist); l != want || d != want {
				t.Fatalf("processed %d in process, %d over TCP, want %d both ways", l, d, want)
			}
			if local.TuplesIn != n || dist.TuplesIn != n {
				t.Fatalf("TuplesIn %d in process, %d over TCP, want %d", local.TuplesIn, dist.TuplesIn, n)
			}
			for i, ws := range dist.Wire {
				if ws.Abandoned != 0 {
					t.Fatalf("edge %d abandoned %d messages", i, ws.Abandoned)
				}
			}
		})
	}
}

// TestDistributedChaosConvergence is the chaos integration test: four
// worker processes over localhost TCP with injected connection resets and
// partition windows on two of the four edges. The run must complete, never
// invent tuples (at-least-once delivery with no duplicates means every
// engine processes at most what its edge was asked to carry), observe real
// reconnects, and still converge on the planted subspace.
func TestDistributedChaosConvergence(t *testing.T) {
	const n, tuples = 4, 16000
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cl := launchCluster(t, n, WorkerSpec{Dim: 40, Components: 3, Alpha: 1 - 1.0/300, Batch: 16})

	chaos := map[int]*wire.ConnPlan{
		1: {Reset: 0.03, Seed: 11},
		2: {Reset: 0.02, Partition: 0.25, PartitionFor: 40 * time.Millisecond, Seed: 12},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunCoordinator(ctx, DistConfig{
		Engine:       engineConfig(40, 3, 300),
		Workers:      cl.Addrs,
		Source:       signalSource(gen, tuples),
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Seed:         9,
		Batch:        16,
		BarrierEvery: 2000,
		Retry:        distRetry,
		Chaos:        chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != tuples {
		t.Fatalf("TuplesIn = %d, want %d", res.TuplesIn, tuples)
	}

	var processed int64
	for i, st := range res.Engines {
		processed += st.Processed
		// TuplesOut <= TuplesIn per edge: reconnect retransmission must
		// never duplicate an observation.
		if st.Processed > res.Wire[i].TuplesSent {
			t.Fatalf("engine %d processed %d tuples but its edge only carried %d",
				i, st.Processed, res.Wire[i].TuplesSent)
		}
	}
	if processed > res.TuplesIn {
		t.Fatalf("engines processed %d tuples from an input of %d", processed, res.TuplesIn)
	}
	if processed < res.TuplesIn/2 {
		t.Fatalf("chaos starved the run: only %d/%d tuples processed", processed, res.TuplesIn)
	}

	var reconnects, resets int64
	for i := range chaos {
		reconnects += res.Wire[i].Reconnects
		resets += res.Wire[i].Resets
	}
	if resets == 0 {
		t.Fatal("chaos plans injected no resets")
	}
	if reconnects == 0 {
		t.Fatal("edges never reconnected despite injected faults")
	}
	for i := range res.Wire {
		if _, chaotic := chaos[i]; !chaotic && res.Wire[i].Reconnects != 0 {
			t.Fatalf("clean edge %d reconnected %d times", i, res.Wire[i].Reconnects)
		}
	}

	// Convergence across reconnects: the merged eigenbasis still finds the
	// planted subspace even though two engines saw torn, replayed streams.
	truth := gen.TrueBasis()
	if res.Merged == nil {
		t.Fatal("no merged eigensystem")
	}
	if aff := res.Merged.SubspaceAffinity(truth); aff < 0.8 {
		t.Fatalf("merged affinity = %v after chaos", aff)
	}
}

// runMeasured drives one real 4-process run with the given forgetting
// window and returns total processed tuples, total snapshot sends, and the
// wall-clock elapsed time.
func runMeasured(t *testing.T, window float64, tuples int64) (int64, int64, time.Duration) {
	t.Helper()
	const n = 4
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 60, Signals: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl := launchCluster(t, n, WorkerSpec{Dim: 60, Components: 3, Alpha: 1 - 1/window, Batch: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunCoordinator(ctx, DistConfig{
		Engine:       engineConfig(60, 3, window),
		Workers:      cl.Addrs,
		Source:       signalSource(gen, tuples),
		SyncEvery:    time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Seed:         13,
		Batch:        32,
		Retry:        distRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	var processed, syncs int64
	for _, st := range res.Engines {
		processed += st.Processed
		syncs += st.SnapshotsSent
	}
	return processed, syncs, res.Elapsed
}

// TestDESAgreesWithMeasuredWireRun validates the discrete-event simulator
// against the real TCP runtime on the same workload. Both systems throttle
// synchronization with the 1.5·N independence criterion, so with a fast
// sync tick the criterion is the binding constraint and the snapshot sends
// per tuple must agree within a generous tolerance. The exclusion decision
// is cross-checked too: with a forgetting window far larger than the
// stream, both the simulator and the real cluster must refuse every sync.
func TestDESAgreesWithMeasuredWireRun(t *testing.T) {
	const tuples = 24000
	const window = 500.0

	processed, realSyncs, elapsed := runMeasured(t, window, tuples)
	if realSyncs == 0 {
		t.Fatal("measured run produced no syncs to validate against")
	}
	realRate := float64(realSyncs) / float64(processed)

	// Calibrate the simulator's cost model from the measured per-thread
	// throughput, then replay the same scenario in virtual time: same
	// engine count, sync period, and independence window.
	perThread := float64(processed) / 4 / elapsed.Seconds()
	wl := cluster.Workload{Dim: 60, Components: 3}
	wl.CostPerFlop = (1 / perThread) / (60 * 4 * 4)
	des, err := cluster.Simulate(cluster.Config{
		Workload:     wl,
		Engines:      4,
		SingleNode:   true,
		SyncPeriod:   1e-3,
		SyncStrategy: syncctl.Ring,
		WindowN:      window,
		Duration:     elapsed.Seconds(),
		Warmup:       1e-3,
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if des.SyncsSent == 0 {
		t.Fatal("simulator predicted no syncs")
	}
	desRate := float64(des.SyncsSent) / float64(des.Tuples)
	if ratio := desRate / realRate; ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("sync rate disagreement: DES %.5f sends/tuple vs measured %.5f (ratio %.2f)",
			desRate, realRate, ratio)
	}

	// Exclusion agreement: a window of 10^6 observations means no engine
	// ever accumulates 1.5·N fresh tuples, so the criterion must suppress
	// every sync in both systems.
	_, blockedSyncs, _ := runMeasured(t, 1e6, 8000)
	if blockedSyncs != 0 {
		t.Fatalf("real cluster sent %d syncs that the criterion should exclude", blockedSyncs)
	}
	desBlocked, err := cluster.Simulate(cluster.Config{
		Workload:     wl,
		Engines:      4,
		SingleNode:   true,
		SyncPeriod:   1e-3,
		SyncStrategy: syncctl.Ring,
		WindowN:      1e6,
		Duration:     elapsed.Seconds(),
		Warmup:       1e-3,
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if desBlocked.SyncsSent != 0 {
		t.Fatalf("simulator sent %d syncs that the criterion should exclude", desBlocked.SyncsSent)
	}
	if desBlocked.SyncsSkipped == 0 {
		t.Fatal("simulator recorded no skipped syncs under the blocking window")
	}
}

// TestDistributedChaosObsReports turns the telemetry plane on under the same
// chaos plans as TestDistributedChaosConvergence and checks the at-least-once
// obs-report accounting: every worker's journal survives the injected resets
// and partitions with zero proven event loss (the per-report overlap window
// re-carries the tail, so a report killed mid-flight costs nothing once a
// later one lands), redeliveries are discarded as dups rather than merged
// twice, and the cluster-wide end-to-end latency histogram is exactly the
// bucket-wise sum of the per-worker ones. Once the run returns and the
// workers exit, every goroutine the test started (graph nodes, edge send and
// receive loops, the harness's stdout drains) must exit too: an edge that
// leaks one fails here rather than by starving the run.
func TestDistributedChaosObsReports(t *testing.T) {
	const n, tuples = 4, 16000
	gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: 40, Signals: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Taken before the launch: the harness's drains end with the workers,
	// which serve one session each, so they cannot mask a leaked goroutine.
	baseline := runtime.NumGoroutine()
	cl := launchCluster(t, n, WorkerSpec{
		Dim: 40, Components: 3, Alpha: 1 - 1.0/300, Batch: 16,
		ReportEvery: 5 * time.Millisecond,
	})

	chaos := map[int]*wire.ConnPlan{
		1: {Reset: 0.03, Seed: 21},
		2: {Reset: 0.02, Partition: 0.25, PartitionFor: 40 * time.Millisecond, Seed: 22},
	}
	cc := obs.NewClusterCollector(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunCoordinator(ctx, DistConfig{
		Engine:       engineConfig(40, 3, 300),
		Workers:      cl.Addrs,
		Source:       signalSource(gen, tuples),
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: syncctl.Ring,
		Seed:         9,
		Batch:        16,
		BarrierEvery: 2000,
		Retry:        distRetry,
		Chaos:        chaos,
		Cluster:      cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resets int64
	for i := range chaos {
		resets += res.Wire[i].Resets
	}
	if resets == 0 {
		t.Fatal("chaos plans injected no resets")
	}

	cs := cc.Snapshot()
	if len(cs.Nodes) != n {
		t.Fatalf("cluster snapshot has %d nodes, want %d workers", len(cs.Nodes), n)
	}
	var e2eTotal int64
	for _, node := range cs.Nodes {
		// The telemetry edge flushes a final cumulative report at EOS after
		// the periodic ones, so every worker must land at least two.
		if node.Reports < 2 {
			t.Errorf("%s delivered %d reports, want >= 2 (periodic + final)", node.Node, node.Reports)
		}
		// Reports that died with a reset simply leave seq holes; the ones
		// that arrived must never exceed the seq watermark.
		if node.Reports+node.DupReports > node.ReportSeq {
			t.Errorf("%s absorbed %d reports (+%d dups) beyond seq watermark %d",
				node.Node, node.Reports, node.DupReports, node.ReportSeq)
		}
		// The at-least-once guarantee under chaos: the journal overlap
		// window must cover every reconnect hole, so the merged seq chain
		// proves no event was lost and no duplicate was merged.
		if node.EventGaps != 0 {
			t.Errorf("%s journal lost %d events across reconnects", node.Node, node.EventGaps)
		}
		if node.EventsMerged == 0 {
			t.Errorf("%s merged no journal events despite sync traffic", node.Node)
		}
		if node.Snapshot.E2ELatency == nil || node.Snapshot.E2ELatency.Count == 0 {
			t.Errorf("%s reported no end-to-end latency samples", node.Node)
		} else {
			e2eTotal += node.Snapshot.E2ELatency.Count
		}
	}
	if cs.E2ELatency == nil || cs.E2ELatency.Count != e2eTotal {
		t.Fatalf("merged e2e histogram count = %+v, want sum of per-node counts %d",
			cs.E2ELatency, e2eTotal)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
