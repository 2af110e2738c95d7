// Command clustersim runs one scenario on the discrete-event model of the
// paper's 10-node testbed and reports throughput — the tool for what-if
// placement questions beyond the canned Figure 6/7 sweeps.
//
// Usage:
//
//	clustersim -engines 20 -d 250                  # the paper's optimum
//	clustersim -engines 30 -d 250                  # the degraded config
//	clustersim -engines 8 -single                  # all fused on one node
//	clustersim -engines 20 -d 2000 -nodes 16 -bw 1.25e9
//	clustersim -engines 20 -strategy broadcast -syncperiod 0.25
//	clustersim -engines 20 -chaos drop5                  # 5% lossy link
//	clustersim -engines 20 -chaos crash1                 # one engine dies
//	clustersim -engines 20 -chaos flaky                  # drops + crash/restart
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"streampca"
)

func main() {
	engines := flag.Int("engines", 20, "parallel PCA engines")
	d := flag.Int("d", 250, "tuple dimensionality")
	p := flag.Int("p", 5, "principal components")
	single := flag.Bool("single", false, "fuse everything on one node")
	nodes := flag.Int("nodes", 10, "cluster size")
	cores := flag.Int("cores", 4, "cores per node")
	bw := flag.Float64("bw", 125e6, "NIC bandwidth, bytes/s")
	syncPeriod := flag.Float64("syncperiod", 0.5, "sync throttle, virtual seconds (0 disables)")
	windowN := flag.Float64("N", 5000, "forgetting window N for the 1.5N criterion")
	strategy := flag.String("strategy", "ring", "sync strategy: ring, broadcast, group, p2p")
	duration := flag.Float64("duration", 30, "measured virtual seconds")
	seed := flag.Uint64("seed", 1, "split seed")
	chaos := flag.String("chaos", "", "fault scenario: drop5, drop20, crash1, flaky (empty = none)")
	obsAddr := flag.String("obs", "", "after the simulation, serve its stats as observability HTTP on this address until interrupted")
	calD1 := flag.Int("cal-d1", 0, "calibration: first dimensionality")
	calS1 := flag.Float64("cal-s1", 0, "calibration: seconds/update at cal-d1")
	calD2 := flag.Int("cal-d2", 0, "calibration: second dimensionality")
	calS2 := flag.Float64("cal-s2", 0, "calibration: seconds/update at cal-d2")
	flag.Parse()

	spec := streampca.DefaultClusterSpec()
	spec.Nodes = *nodes
	spec.CoresPerNode = *cores
	spec.LinkBandwidth = *bw

	work := streampca.DefaultClusterWorkload()
	work.Dim = *d
	work.Components = *p
	if *calD1 != 0 {
		if err := work.Calibrate(*calD1, *calS1, *calD2, *calS2); err != nil {
			fatal(err)
		}
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

	const warmup = 5.0
	spec2, err := chaosScenario(*chaos, *engines, warmup, *duration)
	if err != nil {
		fatal(err)
	}

	st, err := streampca.SimulateCluster(streampca.ClusterConfig{
		Spec: spec, Workload: work,
		Engines: *engines, SingleNode: *single,
		SyncPeriod: *syncPeriod, SyncStrategy: strat, WindowN: *windowN,
		Duration: *duration, Warmup: warmup, Seed: *seed,
		Chaos: spec2,
	})
	if err != nil {
		fatal(err)
	}

	placement := "distributed"
	if *single {
		placement = "single-node (fused)"
	}
	fmt.Printf("scenario: %d engines, d=%d, %s, %d nodes × %d cores\n",
		*engines, *d, placement, *nodes, *cores)
	fmt.Printf("throughput: %.0f tuples/s (%.1f per thread)\n", st.Throughput(), st.PerThread())
	fmt.Printf("syncs: %d sent, %d suppressed by the 1.5N criterion\n", st.SyncsSent, st.SyncsSkipped)
	fmt.Printf("splitter NIC: %.1f MB/s (%.0f%% of capacity)\n",
		st.WireBytes/st.Duration/1e6, 100*st.WireBytes/st.Duration / *bw)
	var min, max int64
	min = 1 << 62
	for _, n := range st.PerEngine {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	fmt.Printf("per-engine load: min %d, max %d tuples (imbalance %.2f)\n",
		min, max, float64(max)/float64(min+1))
	if *chaos != "" {
		fmt.Printf("chaos [%s]: %d tuples dropped, %d crashes, %d recoveries\n",
			*chaos, st.TuplesDropped, st.Crashes, st.Recoveries)
	}

	if *obsAddr != "" {
		if err := serveObs(*obsAddr, st, spec2); err != nil {
			fatal(err)
		}
	}
}

// serveObs exports the finished simulation's statistics through the same
// observability endpoints a live pipeline serves — named gauges/counters,
// per-engine load, and the injected fault schedule in the journal — then
// blocks until interrupted so the endpoints can be scraped.
func serveObs(addr string, st *streampca.ClusterStats, chaos *streampca.ClusterChaos) error {
	set := streampca.NewObsSet()
	set.Gauge("sim_throughput_tuples_per_s").Set(st.Throughput())
	set.Gauge("sim_per_thread_tuples_per_s").Set(st.PerThread())
	set.Gauge("sim_duration_virtual_s").Set(st.Duration)
	set.Gauge("sim_wire_bytes").Set(st.WireBytes)
	set.Counter("sim_tuples_total").Add(st.Tuples)
	set.Counter("sim_syncs_sent_total").Add(st.SyncsSent)
	set.Counter("sim_syncs_skipped_total").Add(st.SyncsSkipped)
	set.Counter("sim_tuples_dropped_total").Add(st.TuplesDropped)
	set.Counter("sim_crashes_total").Add(st.Crashes)
	set.Counter("sim_recoveries_total").Add(st.Recoveries)
	for i, n := range st.PerEngine {
		set.Engine(i).Observations.Add(n)
	}
	if chaos != nil {
		for _, c := range chaos.Crashes {
			set.Journal().Append(streampca.ObsEvent{
				Kind: streampca.ObsEvCrash, Engine: c.Engine, A: c.At,
			})
			if c.RecoverAt > 0 {
				set.Journal().Append(streampca.ObsEvent{
					Kind: streampca.ObsEvRecover, Engine: c.Engine, A: c.RecoverAt,
				})
			}
		}
	}

	srv, err := streampca.ServeObs(addr, streampca.NewObsClusterCollector(set))
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("observability on http://%s/ — ctrl-c to exit\n", srv.Addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

// chaosScenario maps a -chaos preset name onto a deterministic fault spec.
// Crash times are placed inside the measured window so their impact shows up
// in the reported throughput.
func chaosScenario(name string, engines int, warmup, duration float64) (*streampca.ClusterChaos, error) {
	victim := 0
	if engines > 1 {
		victim = 1
	}
	crashAt := warmup + duration/4
	recoverAt := warmup + duration/2
	switch name {
	case "":
		return nil, nil
	case "drop5":
		return &streampca.ClusterChaos{DropRate: 0.05}, nil
	case "drop20":
		return &streampca.ClusterChaos{DropRate: 0.20}, nil
	case "crash1":
		return &streampca.ClusterChaos{
			Crashes: []streampca.ClusterCrash{{Engine: victim, At: crashAt}},
		}, nil
	case "flaky":
		return &streampca.ClusterChaos{
			DropRate: 0.05,
			Crashes: []streampca.ClusterCrash{
				{Engine: victim, At: crashAt, RecoverAt: recoverAt},
			},
		}, nil
	default:
		return nil, fmt.Errorf("unknown chaos scenario %q (want drop5, drop20, crash1, flaky)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clustersim:", err)
	os.Exit(1)
}
