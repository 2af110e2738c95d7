// Package pipeline wires the paper's analysis graph (Figure 2): an input
// source whose split feeds N stateful streaming-PCA engines, a
// throttled synchronization controller, and a result sink. Engines exchange
// eigensystem snapshots over loop edges exactly as InfoSphere control ports
// carry sync messages, and the final eigensystem "can be obtained from any
// node" — or merged across all of them.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"streampca/internal/core"
	"streampca/internal/fault"
	"streampca/internal/obs"
	"streampca/internal/stream"
	"streampca/internal/syncctl"
	"streampca/internal/wire"
)

// Source yields the input stream: each call returns the next observation
// (vec required; mask nil for complete vectors) and ok=false when the
// stream is exhausted. Implementations are called from a single goroutine.
// The pipeline copies each row into its frame before it calls again, so a
// source may hand out the same vec and mask storage on every call.
type Source func() (vec []float64, mask []bool, ok bool)

// Config assembles a parallel streaming-PCA application.
type Config struct {
	// Engine is the per-engine PCA configuration (validated by Run).
	Engine core.Config
	// NumEngines is the parallel width N of the split (default 1).
	NumEngines int
	// Source provides the data; required.
	Source Source
	// Seed seeds the random split.
	Seed uint64
	// SyncEvery is the synchronization throttle period; 0 disables the
	// controller entirely (independent engines).
	SyncEvery time.Duration
	// SyncStrategy selects the controller pattern (default ring).
	SyncStrategy syncctl.Strategy
	// SyncFactor is the data-driven independence criterion multiplier; an
	// engine participates in a sync only after SyncFactor·N observations
	// since its last one. Default 1.5 (§II-C).
	SyncFactor float64
	// Batch is how many tuples the source packs into one stream.Frame. Above
	// 1 it turns on micro-batched transport: every channel hop, split
	// decision and operator dispatch is paid once per frame instead of once
	// per tuple, and the engines absorb each frame's rows, gappy or not,
	// through the block-incremental update (core.Engine.ObserveBlockMasked).
	// 0 or 1 sends frames of one.
	Batch int
	// FlushEvery bounds how long a partially filled frame may accumulate
	// before it is emitted anyway, keeping tail latency bounded when the
	// source slows down (default 2ms; only meaningful with Batch > 1). The
	// deadline is checked as tuples arrive, so it bounds staleness relative
	// to source progress — a source that blocks indefinitely holds its
	// partial frame with it.
	FlushEvery time.Duration
	// Chaos, when non-nil, injects deterministic faults into the run.
	Chaos *ChaosConfig
	// Obs, when non-nil, threads the observability bundle through every
	// layer: per-operator latency/batch/queue histograms on the stream
	// runtime, algorithm gauges on each engine, sync telemetry on the
	// controller, and control-plane events (syncs, failures, checkpoints)
	// in the shared journal. Serve it with obs.NewClusterCollector(Obs).
	Obs *obs.Set
}

// ChaosConfig describes a deterministic fault scenario for a pipeline run.
// Every fault source is driven by seeded PRNGs, so two runs with the same
// configuration and source produce identical fault schedules.
type ChaosConfig struct {
	// Edge maps an engine index to a fault plan interposed on its
	// source→engine data edge (drop/duplicate/delay/reorder).
	Edge map[int]fault.Plan
	// Engine maps an engine index to a fault plan whose PanicAfter crashes
	// that engine's operator mid-stream.
	Engine map[int]fault.Plan
	// RestartAfter is how long after a crash the supervisor revives the
	// engine from its last checkpoint; 0 leaves crashed engines down.
	RestartAfter time.Duration
	// CheckpointEvery is the per-engine in-memory checkpoint period in
	// observations (default 500 when RestartAfter is set).
	CheckpointEvery int64
}

// EngineStats summarizes one engine's run. It is the wire's EngineReport,
// so a worker's stats cross the socket as they are.
type EngineStats = wire.EngineReport

// Result is the outcome of a pipeline run.
type Result struct {
	// Engines holds per-engine statistics, indexed by engine id.
	Engines []EngineStats
	// Merged is the MergeMany reduction of every initialized engine's
	// final eigensystem (nil when none initialized).
	Merged *core.Eigensystem
	// Metrics is the stream-level profiler output.
	Metrics []stream.MetricsSnapshot
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// TuplesIn counts tuples the source returned, malformed ones included.
	TuplesIn int64
	// Failures lists operator failures observed during the run.
	Failures []stream.NodeFailure
	// Restarts counts engines successfully revived from checkpoint.
	Restarts int64
	// FaultLog is the concatenated injector event log in engine order —
	// byte-identical across runs with the same seeds and source.
	FaultLog string
	// Wire holds the per-edge transport counters of a distributed run
	// (nil for the in-process runtime).
	Wire []wire.EdgeStats
}

// Throughput returns tuples per second over the whole run.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TuplesIn) / r.Elapsed.Seconds()
}

// Run executes the pipeline until the source is exhausted, then returns the
// per-engine and merged results. ctx cancels an in-flight run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	chaos := cfg.Chaos
	var ckptEvery int64
	if chaos != nil {
		for _, plan := range chaos.Edge {
			if err := plan.Validate(); err != nil {
				return nil, fmt.Errorf("pipeline: chaos edge plan: %w", err)
			}
		}
		for _, plan := range chaos.Engine {
			if err := plan.Validate(); err != nil {
				return nil, fmt.Errorf("pipeline: chaos engine plan: %w", err)
			}
		}
		ckptEvery = chaos.CheckpointEvery
		if ckptEvery <= 0 && chaos.RestartAfter > 0 {
			ckptEvery = 500
		}
	}

	n := p.NumEngines
	engines := make([]*pcaOperator, n)
	injectors := make([]*fault.Injector, n)
	var restarts atomic.Int64
	// Lane i is engine i's operator on the source's output i, with its chaos
	// taps; snapshots travel engine → engine over loop edges.
	attach := func(runCtx context.Context, g *stream.Graph, src stream.NodeID,
		ctl *syncctl.Controller) (control, results []port, err error) {
		engIDs := make([]stream.NodeID, n)
		for i := range engines {
			// In-process both e2e stamps read the same clock, so end-to-end
			// latency needs no offset correction (op.clock stays nil).
			op, err := newPCAOperator(i, p.Engine, p.SyncFactor, p.Obs)
			if err != nil {
				return nil, nil, err
			}
			op.ckptEvery = ckptEvery
			engines[i] = op
			var node stream.Operator = op
			if chaos != nil {
				if plan, ok := chaos.Engine[i]; ok {
					node = fault.WrapOperator(op, plan)
				}
			}
			engIDs[i] = g.Add(fmt.Sprintf("pca%d", i), node, stream.WithBuffer(p.nodeBuf))
			if err := g.Connect(src, i, engIDs[i], portData); err != nil {
				return nil, nil, err
			}
			if chaos != nil {
				if plan, ok := chaos.Edge[i]; ok {
					inj := fault.NewInjector(plan)
					if err := g.TapEdge(src, i, engIDs[i], portData, inj); err != nil {
						return nil, nil, err
					}
					injectors[i] = inj
				}
			}
			control = append(control, port{engIDs[i], portControl})
			results = append(results, port{engIDs[i], portResult})
		}
		if ctl != nil {
			// Snapshots fan out to all peers; receivers filter on To.
			for i := range engIDs {
				for j := range engIDs {
					if i == j {
						continue
					}
					if err := g.ConnectLoop(engIDs[i], portSnapshotOut, engIDs[j], portSnapshot); err != nil {
						return nil, nil, err
					}
				}
			}
		}

		// Failure supervisor: a crashed engine is excluded from sync plans
		// immediately; if RestartAfter is set, it is revived from its last
		// checkpoint on its own goroutine and re-enters the sync rotation.
		// Registered whenever chaos or observability is on — an instrumented
		// run journals failures and revivals even without injected faults.
		if chaos == nil && p.Obs == nil {
			return control, results, nil
		}
		var journal *obs.Journal
		if p.Obs != nil {
			journal = p.Obs.Journal()
		}
		g.OnNodeFailure(func(f stream.NodeFailure) {
			idx := slices.Index(engIDs, f.Node)
			if idx < 0 {
				return
			}
			if journal != nil {
				journal.Append(obs.Event{
					Kind: obs.EvNodeFailure, Node: f.Name, Engine: idx,
				})
			}
			if ctl != nil {
				ctl.MarkFailed(idx)
			}
			if chaos == nil || chaos.RestartAfter <= 0 {
				return
			}
			go func() {
				t := time.NewTimer(chaos.RestartAfter)
				defer t.Stop()
				select {
				case <-t.C:
				case <-runCtx.Done():
					return
				}
				err := g.Revive(f.Node, func() {
					engines[idx].restore()
					if ctl != nil {
						ctl.MarkRecovered(idx)
					}
				})
				if err == nil {
					restarts.Add(1)
					if journal != nil {
						journal.Append(obs.Event{
							Kind: obs.EvNodeRevive, Node: f.Name, Engine: idx,
						})
					}
				}
			}()
		})
		return control, results, nil
	}

	res, err := p.run(ctx, lanes{attach: attach})
	if err != nil {
		return nil, err
	}
	res.Restarts = restarts.Load()
	if chaos != nil {
		var b strings.Builder
		for i, inj := range injectors {
			if inj == nil {
				continue
			}
			fmt.Fprintf(&b, "# engine %d\n", i)
			b.WriteString(inj.Log())
		}
		res.FaultLog = b.String()
	}
	return res, nil
}
