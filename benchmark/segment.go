package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"streampca"
	"streampca/internal/eig"
	"streampca/internal/mat"
)

// segmentEnv carries a segSpec to a re-executed copy of this binary. One
// segment is one fresh process: set-up, one RunPipeline or RunCoordinator
// call, the correctness checks, and the layer readings of that run.
const segmentEnv = "STREAMBENCH_SEGMENT"

const (
	spanGenerate = "setup.generate"
	spanLaunch   = "setup.launch"
	spanRun      = "pipeline.run"
	spanPull     = "source.pull"
	// pullsPerSpan is how many Source calls one source.pull span sums.
	pullsPerSpan = 1024
)

type segSpec struct {
	Workload string
	Seed     uint64
	Tuples   int64
	// Obs threads an ObsSet through the run. Spans additionally records the
	// benchmark's own spans and times every Source call; it implies Obs.
	Obs, Spans bool
	// TracePath, with Spans, is where the Chrome trace is written.
	TracePath string
	// StartNs is the parent's clock when it started this process, the origin
	// of setup_s.
	StartNs int64
	// GuardS bounds the run's duration; the source ends the stream early
	// once it has passed.
	GuardS float64
	// Smoke marks a stream too short for the estimate to converge; the
	// affinity floor is not applied to it.
	Smoke bool
}

// segResult is what one segment measured. The end-to-end fields are read with
// every spec; Layer holds this run's per-layer readings by metric name.
type segResult struct {
	Tuples          int64 // pulled from the source: the attempts
	Processed       int64 // Σ EngineStats.Processed
	WallS           float64
	SetupS          float64
	CPUSelfS        float64 // user+sys of this process during the run
	CPUChildS       float64 // user+sys of the wire workers, whole life
	RSSMB           float64 // peak RSS of the largest process in the tree
	Affinity        float64 // of all maintained components; AffinityLeading of the first p
	AffinityLeading float64
	Procs           int      // GOMAXPROCS of the segment's process
	Failures        []string // correctness checks that did not hold
	Layer           map[string]float64
}

// usage returns the user+sys CPU seconds and the peak RSS in MB that the
// kernel accounts to who (this process, or its waited-for children).
func usage(who int) (cpuS, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runSegment is the body of a segment process.
func runSegment(spec segSpec) (*segResult, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(spec.GuardS*float64(time.Second))+30*time.Second)
	defer cancel()

	// The instrument set comes first: its creation time is the origin of the
	// trace's timeline, and the set-up spans belong on it.
	var set *streampca.ObsSet
	var rec *recorder
	if spec.Obs || spec.Spans {
		set = streampca.NewObsSet()
	}
	if spec.Spans {
		rec = &recorder{}
	}

	id := rec.begin(spanGenerate, 0)
	in, err := w.makeInput(spec.Seed, spec.Tuples, time.Now().Add(time.Duration(spec.GuardS*float64(time.Second))))
	if err != nil {
		return nil, err
	}
	rec.end(id)

	var cl *streampca.WorkerCluster
	var cluster *streampca.ObsClusterCollector
	if w.wire {
		id := rec.begin(spanLaunch, 0)
		ws := streampca.WorkerSpec{Dim: w.dim, Components: components, Alpha: alpha, Batch: w.batch, Sessions: 1}
		if set != nil {
			// The workers' ingest-to-decision latencies reach the
			// coordinator only through the telemetry plane.
			ws.ReportEvery = 250 * time.Millisecond
			cluster = streampca.NewObsClusterCollector(nil)
		}
		cl, err = streampca.LaunchWorkers(ctx, numEngines, ws)
		if err != nil {
			return nil, err
		}
		defer cl.Shutdown()
		rec.end(id)
	}

	// The source wrapper counts pulls and marks the end of set-up. Only a
	// traced segment pays for two clock reads per pull.
	var pulled int64
	var firstPull time.Time
	var inSource time.Duration
	runID := rec.begin(spanRun, 0)
	src := func() ([]float64, []bool, bool) {
		if pulled == 0 {
			firstPull = time.Now()
		}
		v, m, ok := in.next()
		if ok {
			pulled++
		}
		return v, m, ok
	}
	if spec.Spans {
		plain := src
		var inSpan int
		var spanStart time.Time
		var spanSum time.Duration
		src = func() ([]float64, []bool, bool) {
			t0 := time.Now()
			v, m, ok := plain()
			d := time.Since(t0)
			inSource += d
			if inSpan == 0 {
				spanStart, spanSum = t0, 0
			}
			spanSum += d
			inSpan++
			if inSpan == pullsPerSpan || !ok {
				rec.add(spanPull, runID, spanStart, spanSum, map[string]any{"pulls": inSpan})
				inSpan = 0
			}
			return v, m, ok
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0, _ := usage(syscall.RUSAGE_SELF)
	t0 := time.Now()
	var res *streampca.PipelineResult
	if w.wire {
		res, err = streampca.RunCoordinator(ctx, streampca.DistConfig{
			Engine: w.engine(), Workers: cl.Addrs, Source: src, Seed: spec.Seed,
			Batch: w.batch, SyncEvery: w.syncEvery, Obs: set, Cluster: cluster,
		})
	} else {
		res, err = streampca.RunPipeline(ctx, streampca.PipelineConfig{
			Engine: w.engine(), NumEngines: numEngines, Source: src, Seed: spec.Seed,
			Batch: w.batch, SyncEvery: w.syncEvery, Obs: set,
		})
	}
	wall := time.Since(t0)
	rec.end(runID)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	cpu1, rssSelf := usage(syscall.RUSAGE_SELF)
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	var cpuChild, rssChild float64
	if cl != nil {
		if err := cl.Wait(); err != nil {
			return nil, fmt.Errorf("%s: worker: %w", w.name, err)
		}
		cpuChild, rssChild = usage(syscall.RUSAGE_CHILDREN)
	}

	out := &segResult{
		Tuples: pulled, WallS: wall.Seconds(),
		SetupS:   float64(firstPull.UnixNano()-spec.StartNs) / 1e9,
		CPUSelfS: cpu1 - cpu0, CPUChildS: cpuChild,
		RSSMB: math.Max(rssSelf, rssChild),
		Procs: runtime.GOMAXPROCS(0),
	}
	var outliers int64
	for _, e := range res.Engines {
		out.Processed += e.Processed
		outliers += e.Outliers
	}
	flagged := float64(outliers) / float64(max(out.Processed, 1))
	out.Failures = check(w, res, out, in.truth, flagged, spec.Smoke)

	out.Layer = layerReadings(w, res, out, probes{
		wall: wall, inSource: inSource, timedSource: spec.Spans,
		mallocs: ms1.Mallocs - ms0.Mallocs, gcCPUS: gc1 - gc0,
		set: set, cluster: cluster, pace: in.pace, flagged: flagged,
	})

	if spec.Spans && spec.TracePath != "" {
		if err := rec.write(spec.TracePath, set); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return out, nil
}

// probes is what the segment measured around the run, beside the run's own
// result, for layerReadings to work from.
type probes struct {
	wall, inSource time.Duration
	timedSource    bool // inSource was measured
	mallocs        uint64
	gcCPUS         float64
	set            *streampca.ObsSet
	cluster        *streampca.ObsClusterCollector
	pace           *pacer
	flagged        float64
}

// layerReadings derives this run's per-layer metrics from the program's public
// outputs (Result.Metrics, Result.Wire, EngineStats, the ObsSet) and the
// benchmark's own probes.
func layerReadings(w workload, res *streampca.PipelineResult, out *segResult, p probes) map[string]float64 {
	L := map[string]float64{}
	n := float64(max(out.Tuples, 1))
	var engBusy, splitBusy time.Duration
	var splitIn, dropped, rounds int64
	for _, m := range res.Metrics {
		switch {
		case strings.HasPrefix(m.Name, "pca"):
			engBusy += m.Busy
		case m.Name == "split":
			splitBusy, splitIn = m.Busy, m.In
		case m.Name == "sync-controller":
			rounds = m.In
		}
		dropped += m.Dropped
	}
	var depth float64
	if p.set != nil {
		snap := p.set.Snapshot()
		e2e := snap.E2ELatency
		if p.cluster != nil {
			// The engines decide in the workers, so the ingest-to-decision
			// histogram arrives in the workers' reports.
			e2e = p.cluster.Snapshot().E2ELatency
		}
		if e2e != nil {
			L["obs.e2e_mean_us"] = e2e.Mean() / 1e3
		}
		var ops int
		for _, op := range snap.Operators {
			// The queue ahead of the engines: their own input in one
			// process, the wire send lanes on the coordinator.
			if strings.HasPrefix(op.Name, "pca") || strings.HasPrefix(op.Name, "wire-send") {
				depth += op.QueueDepth.Mean()
				ops++
			}
		}
		depth /= float64(max(ops, 1))
	}
	cpuUs := (out.CPUSelfS + out.CPUChildS) * 1e6 / n
	L["core.engine_busy_us"] = engBusy.Seconds() * 1e6 / n
	L["core.engine_util"] = engBusy.Seconds() / (out.WallS * float64(min(numEngines, out.Procs)))
	L["core.flagged_share"] = p.flagged
	L["core.affinity_leading"] = out.AffinityLeading
	var maxEng int64
	for _, e := range res.Engines {
		L["core.merges_applied"] += float64(e.MergesApplied)
		L["core.snapshots_sent"] += float64(e.SnapshotsSent)
		maxEng = max(maxEng, e.Processed)
	}
	L["syncctl.rounds"] = float64(rounds)
	L["pipeline.nonengine_cpu_us"] = cpuUs - L["core.engine_busy_us"]
	L["pipeline.allocs_per_ktuple"] = float64(p.mallocs) * 1e3 / n
	L["pipeline.gc_cpu_pct"] = 100 * p.gcCPUS / math.Max(out.CPUSelfS, 1e-9)
	L["stream.split_busy_us"] = splitBusy.Seconds() * 1e6 / n
	L["stream.msgs_per_ktuple"] = float64(splitIn) * 1e3 / n
	L["stream.split_skew"] = float64(maxEng) * numEngines / float64(max(out.Processed, 1))
	L["stream.dropped"] = float64(dropped)
	L["stream.queue_depth_mean"] = depth
	if p.timedSource {
		L["pipeline.source_gap_us"] = (p.wall - p.inSource).Seconds() * 1e6 / n
		if w.spectra {
			L["ingest.pull_us"] = p.inSource.Seconds() * 1e6 / n
		}
	}
	if w.wire {
		L["wire.coord_cpu_us"] = out.CPUSelfS * 1e6 / n
		L["wire.worker_cpu_us"] = out.CPUChildS * 1e6 / n
		var bytes, sent, frames, writevs int64
		for _, e := range res.Wire {
			bytes += e.BytesSent
			sent += e.TuplesSent
			frames += e.FramesSent
			writevs += e.Writevs
			L["wire.cork_stalls"] += float64(e.CorkStalls)
			L["wire.reconnects"] += float64(e.Reconnects)
		}
		L["wire.bytes_per_tuple"] = float64(bytes) / float64(max(sent, 1))
		L["wire.frames_per_writev"] = float64(frames) / float64(max(writevs, 1))
	}
	if pc := p.pace; pc != nil {
		slices.Sort(pc.lagNs)
		slices.Sort(pc.genLateNs)
		L["source.pull_lag_p50_us"] = quantileNs(pc.lagNs, 0.5) / 1e3
		L["source.pull_lag_p99_us"] = quantileNs(pc.lagNs, 0.99) / 1e3
		L["source.gen_late_p99_us"] = quantileNs(pc.genLateNs, 0.99) / 1e3
		L["source.late_share_5ms"] = float64(pc.late) / n
	}
	L["mat.block_size.d400"] = float64(mat.BlockSize(400, components, 16))
	L["mat.block_size.d1000"] = float64(mat.BlockSize(1000, components, 16))
	return L
}

// check returns the correctness conditions the run's outputs do not meet.
func check(w workload, res *streampca.PipelineResult, out *segResult, truth *streampca.Matrix, flagged float64, smoke bool) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if out.Processed != out.Tuples {
		fail("engines processed %d of %d tuples pulled", out.Processed, out.Tuples)
	}
	if lo, hi := 0.5*outlierRate, 2*outlierRate; flagged < lo || flagged > hi {
		fail("flagged share %.4f outside [%.3f, %.3f]", flagged, lo, hi)
	}
	for _, e := range res.Wire {
		if e.Reconnects != 0 || e.Abandoned != 0 {
			fail("edge %s: %d reconnects, %d abandoned", e.Name, e.Reconnects, e.Abandoned)
		}
	}
	es := res.Merged
	if es == nil {
		return append(bad, "no merged eigensystem")
	}
	if e := eig.OrthonormalityError(es.Vectors); !(e < 1e-8) {
		fail("merged basis not orthonormal: max|EᵀE−I| = %.3g", e)
	}
	for i, v := range es.Values {
		if !(v >= 0) || (i > 0 && v > es.Values[i-1]) {
			fail("eigenvalues not non-negative descending: %v", es.Values)
			break
		}
	}
	if !(es.Sigma2 > 0) {
		fail("sigma² = %v", es.Sigma2)
	}
	// How much of the planted subspace the maintained components span:
	// (1/p)·‖truthᵀ·E‖²_F over all k columns of E. Eigensystem.SubspaceAffinity
	// scores only the leading p, which on the rank-4 spectra (k=5) drops to
	// 0.8 whenever a contaminant direction takes an engine's top eigenvalue,
	// and whether it does depends on the scheduler (README.md); that value is
	// the per-layer reading core.affinity_leading.
	f := mat.MulTA(nil, truth, es.Vectors).FrobeniusNorm()
	out.Affinity = f * f / float64(truth.Cols())
	out.AffinityLeading = es.SubspaceAffinity(truth)
	if !smoke && !(out.Affinity >= w.affinityFloor) {
		fail("subspace affinity %.4f below floor %.2f", out.Affinity, w.affinityFloor)
	}
	return bad
}

// segmentMain runs the segment named by the environment and prints its
// result as one JSON line.
func segmentMain(raw string) error {
	var spec segSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return fmt.Errorf("bad %s: %w", segmentEnv, err)
	}
	res, err := runSegment(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
