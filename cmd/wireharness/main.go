// Command wireharness boots an N-process streaming-PCA cluster on localhost
// TCP and drives a synthetic workload through it: it re-executes itself once
// per engine as a wire worker, hands the worker addresses to the
// coordinator, and reports throughput, per-engine statistics and per-edge
// transport counters. Optional flags inject connection faults (resets and
// partition windows) on chosen edges, turning the harness into a one-line
// chaos experiment against real sockets.
//
// Usage:
//
//	wireharness -engines 4 -n 200000 -d 250 -p 5 -sync 8ms
//	wireharness -engines 4 -reset 0.02 -partition 0.2 -chaosedges 1,2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"streampca"
)

func main() {
	ctx := context.Background()
	// A re-executed copy of this binary becomes a worker process.
	if ran, err := streampca.WireWorkerFromEnv(ctx); ran {
		if err != nil {
			fmt.Fprintln(os.Stderr, "wireharness worker:", err)
			os.Exit(1)
		}
		return
	}

	engines := flag.Int("engines", 4, "worker processes to spawn")
	n := flag.Int64("n", 100000, "observations to stream")
	d := flag.Int("d", 250, "dimensionality")
	p := flag.Int("p", 5, "principal components")
	window := flag.Float64("window", 5000, "effective sample size N (alpha = 1-1/N)")
	syncEvery := flag.Duration("sync", 8*time.Millisecond, "sync throttle period (0 disables)")
	strategy := flag.String("strategy", "broadcast", "sync strategy: ring, broadcast, group, p2p")
	batch := flag.Int("batch", 32, "micro-batch size for the transport")
	seed := flag.Uint64("seed", 1, "seed")
	outliers := flag.Float64("outliers", 0.02, "synthetic outlier rate")
	reset := flag.Float64("reset", 0, "per-write probability of an injected connection reset")
	partition := flag.Float64("partition", 0, "probability a reconnect dial lands in a partition window")
	partitionFor := flag.Duration("partitionfor", 50*time.Millisecond, "length of one partition window")
	chaosEdges := flag.String("chaosedges", "", "comma-separated edge indices to fault (default: all, when -reset/-partition set)")
	flag.Parse()

	alpha := 1.0
	if *window > 0 {
		alpha = 1 - 1 / *window
	}
	var strat streampca.SyncStrategy
	switch *strategy {
	case "ring":
		strat = streampca.SyncRing
	case "broadcast":
		strat = streampca.SyncBroadcast
	case "group":
		strat = streampca.SyncGroup
	case "p2p":
		strat = streampca.SyncPeerToPeer
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}

	chaos, err := chaosPlans(*engines, *reset, *partition, *partitionFor, *chaosEdges, *seed)
	if err != nil {
		fatal(err)
	}

	spec := streampca.WorkerSpec{
		Dim: *d, Components: *p, Alpha: alpha, Batch: *batch, Sessions: 1,
	}
	cl, err := streampca.LaunchWorkers(ctx, *engines, spec)
	if err != nil {
		fatal(err)
	}
	defer cl.Shutdown()
	fmt.Printf("cluster: %d workers on %s\n", *engines, strings.Join(cl.Addrs, " "))

	gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{
		Dim: *d, Signals: *p, OutlierRate: *outliers, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	var streamed int64
	source := func() ([]float64, []bool, bool) {
		if streamed >= *n {
			return nil, nil, false
		}
		streamed++
		x, _ := gen.Next()
		return x, nil, true
	}

	res, err := streampca.RunCoordinator(ctx, streampca.DistConfig{
		Engine:       streampca.Config{Dim: *d, Components: *p, Alpha: alpha},
		Workers:      cl.Addrs,
		Source:       source,
		Seed:         *seed,
		SyncEvery:    *syncEvery,
		SyncStrategy: strat,
		Batch:        *batch,
		Chaos:        chaos,
		Retry: streampca.RetryPolicy{
			MaxAttempts: 60, Base: time.Millisecond,
			Cap: 100 * time.Millisecond, Factor: 2, Jitter: 0.2,
		},
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("stream: %d tuples in %v (%.0f tuples/s)\n",
		res.TuplesIn, res.Elapsed.Round(time.Millisecond), res.Throughput())
	var processed int64
	for _, st := range res.Engines {
		processed += st.Processed
		fmt.Printf("engine %d: processed %d, outliers %d, syncs sent %d, merges %d\n",
			st.Engine, st.Processed, st.Outliers, st.SnapshotsSent, st.MergesApplied)
	}
	for i, ws := range res.Wire {
		fmt.Printf("edge %d: %d tuples out, %d msgs out, %d msgs in, %d reconnects, %d resets, %d drops\n",
			i, ws.TuplesSent, ws.MsgsSent, ws.MsgsRecv, ws.Reconnects, ws.Resets, ws.Drops)
	}
	fmt.Printf("delivered: %d/%d tuples (%.2f%%)\n",
		processed, res.TuplesIn, 100*float64(processed)/float64(res.TuplesIn))
	if res.Merged != nil {
		fmt.Printf("merged eigensystem: %s\n", res.Merged)
	}
	if err := cl.Wait(); err != nil {
		fatal(fmt.Errorf("worker exit: %w", err))
	}
}

// chaosPlans builds the per-edge fault map from the flag values; nil when no
// fault rate is set.
func chaosPlans(engines int, reset, partition float64, window time.Duration, edges string, seed uint64) (map[int]*streampca.WireConnPlan, error) {
	if reset == 0 && partition == 0 {
		return nil, nil
	}
	idx := make([]int, 0, engines)
	if edges == "" {
		for i := 0; i < engines; i++ {
			idx = append(idx, i)
		}
	} else {
		for _, f := range strings.Split(edges, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || i < 0 || i >= engines {
				return nil, fmt.Errorf("bad chaos edge %q", f)
			}
			idx = append(idx, i)
		}
	}
	plans := make(map[int]*streampca.WireConnPlan, len(idx))
	for _, i := range idx {
		plans[i] = &streampca.WireConnPlan{
			Reset: reset, Partition: partition, PartitionFor: window,
			Seed: seed + uint64(i),
		}
	}
	return plans, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wireharness:", err)
	os.Exit(1)
}
