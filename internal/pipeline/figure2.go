package pipeline

import (
	"context"
	"errors"
	"math"
	"time"

	"streampca/internal/core"
	"streampca/internal/mat"
	"streampca/internal/obs"
	"streampca/internal/stream"
	"streampca/internal/syncctl"
)

// This file is the one assembly of the paper's Figure-2 graph:
//
//	source ─ split ─┬─ lane 0 ─┬─ sink
//	                ├─   …     │
//	 ticker ─ ctl ─▷└─ lane n-1┘
//
// Run and RunCoordinator normalise their configuration into a plan, describe
// their engine lanes (a local pcaOperator each, or a TCP edge to a worker
// process each) and hand both to plan.run, which builds and runs everything
// the two deployments share.

// nodeBuffer is the per-node channel buffer in tuples. The in-process plan
// turns it into a depth in messages (plan.nodeBuf); a worker's engine node
// queues nodeBuffer messages.
const nodeBuffer = 64

// plan is a Config after normalisation: every default filled in, the engine
// configuration validated, and the transport sizes derived from it.
type plan struct {
	Config
	// batch is Config.Batch floored at 1 (1 = frames of one).
	batch int
	// nodeBuf is the per-node queue depth in messages: nodeBuffer tuples,
	// divided by the batch factor because one queued message holds a whole
	// frame. Without this, Batch would silently multiply the pipeline's
	// buffered-tuple capacity ~batch-fold — tens of megabytes of in-flight
	// frame stores whose cache churn erases the transport win.
	nodeBuf int
}

// newPlan validates cfg and fills in its defaults. NumEngines ≤ 0 means 1.
func newPlan(cfg Config) (*plan, error) {
	if cfg.Source == nil {
		return nil, errors.New("pipeline: Source is required")
	}
	if cfg.NumEngines <= 0 {
		cfg.NumEngines = 1
	}
	if cfg.SyncFactor == 0 {
		cfg.SyncFactor = 1.5
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 2 * time.Millisecond
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	p := &plan{Config: cfg, batch: max(cfg.Batch, 1), nodeBuf: nodeBuffer}
	if p.batch > 1 {
		p.nodeBuf = max((nodeBuffer+p.batch-1)/p.batch, 2)
	}
	return p, nil
}

// port names one end of a graph edge.
type port struct {
	node stream.NodeID
	port int
}

// lanes is what differs between the two deployments of the graph: how the N
// engine lanes hang between the split and the sink.
type lanes struct {
	// splitBuf is the split's queue depth in messages.
	splitBuf int
	// barrierEvery, when positive, weaves a checkpoint barrier into the data
	// stream every that many tuples.
	barrierEvery int64
	// attach adds the lanes to g — lane i consumes split output i — and
	// returns where sync-controller commands enter them (loop-edge targets;
	// unused when ctl is nil, i.e. sync is off) and where the engines'
	// flush-time Results leave them. ctx is cancelled when the run ends.
	attach func(ctx context.Context, g *stream.Graph, split stream.NodeID,
		ctl *syncctl.Controller) (control, results []port, err error)
}

// run builds the graph around ln's lanes, runs it until the source is
// exhausted and every engine has reported, and assembles the Result.
func (p *plan) run(ctx context.Context, ln lanes) (*Result, error) {
	n, dim := p.NumEngines, p.Engine.Dim
	// The controller exists before the lanes do: they report engine
	// failures and link loss to it so sync plans exclude unreachable engines.
	var ctl *syncctl.Controller
	if p.SyncEvery > 0 && n > 1 {
		ctl = &syncctl.Controller{N: n, Strategy: p.SyncStrategy}
		if p.Obs != nil {
			ctl.Inst = p.Obs.Sync()
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	g := stream.NewGraph()
	var tuplesIn int64
	src := g.AddSource("source", sourceFunc(p.Source, dim, p.batch, p.FlushEvery,
		stream.NewFramePool(dim, p.batch).Get, &tuplesIn, ln.barrierEvery))
	split := g.Add("split", &stream.Split{N: n, Seed: p.Seed},
		stream.WithBuffer(ln.splitBuf))
	if err := g.Connect(src, 0, split, 0); err != nil {
		return nil, err
	}
	control, results, err := ln.attach(runCtx, g, split, ctl)
	if err != nil {
		return nil, err
	}

	// Synchronization fabric: ticker → controller → lanes. Commands ride loop
	// edges — droppable, and outside the EOS accounting (the data path ends
	// the stream, not the control plane).
	if ctl != nil {
		tick := g.AddSource("sync-ticker", stream.Ticker(p.SyncEvery))
		ctlID := g.Add("sync-controller", ctl)
		if err := g.Connect(tick, 0, ctlID, 0); err != nil {
			return nil, err
		}
		for _, to := range control {
			if err := g.ConnectLoop(ctlID, 0, to.node, to.port); err != nil {
				return nil, err
			}
		}
	}

	// Result sink: collects each engine's flush-time Result and cancels the
	// run once every result edge has drained — Flush fires even when a
	// crashed engine never emitted its Result, so graphs with a live sync
	// ticker still terminate deterministically.
	engines := make([]EngineStats, n)
	snk := g.Add("sink", &stream.Collect{
		OnItem: func(msg stream.Message) {
			st := msg.(stream.Result).Payload.(EngineStats)
			// The index may have crossed a socket; don't trust it blindly.
			if st.Engine >= 0 && st.Engine < n {
				engines[st.Engine] = st
			}
		},
		OnFlush: cancel,
	})
	for _, from := range results {
		if err := g.Connect(from.node, from.port, snk, 0); err != nil {
			return nil, err
		}
	}
	if p.Obs != nil {
		instrument(g, p.Obs)
	}

	start := time.Now()
	err = g.Run(runCtx)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}

	res := &Result{
		Engines:  engines,
		Metrics:  g.Metrics(),
		Elapsed:  elapsed,
		TuplesIn: tuplesIn,
		Failures: g.Failures(),
	}
	var systems []*core.Eigensystem
	for _, st := range engines {
		if st.Final != nil {
			systems = append(systems, st.Final)
		}
	}
	if len(systems) > 0 {
		if merged, mErr := core.MergeMany(systems); mErr == nil {
			res.Merged = merged
		}
	}
	return res, nil
}

// instrument attaches set's per-operator histograms to g's runtime, and a
// counter adapter so the exposition layer can serve live message/tuple/drop
// tallies without obs importing stream.
func instrument(g *stream.Graph, set *obs.Set) {
	g.Instrument(set)
	set.SetOpCounters(func() []obs.OpCounters {
		ms := g.Metrics()
		out := make([]obs.OpCounters, len(ms))
		for i, m := range ms {
			out[i] = obs.OpCounters{
				Name: m.Name, In: m.In, Out: m.Out,
				TuplesIn: m.TuplesIn, TuplesOut: m.TuplesOut,
				Dropped: m.Dropped, BusyNs: int64(m.Busy),
				QueueLen: int64(m.QueueLen),
			}
		}
		return out
	})
}

// sourceFunc builds the graph source: the frame packer, which fills stores
// from store and closes a frame at batch tuples or, when batch > 1,
// flushEvery after it was opened. It is the one place row shape is checked:
// a row whose vector is not dim long, or whose mask is non-nil and not dim
// long, counts in tuplesIn and is dropped, so every frame in the graph is
// regular — equal-length rows, full-length masks, consecutive Seq. It can
// also weave a checkpoint barrier into the data stream every barrierEvery
// tuples.
func sourceFunc(src Source, dim, batch int, flushEvery time.Duration, store func() *stream.FrameStore, tuplesIn *int64, barrierEvery int64) stream.SourceFunc {
	// Frames of one close as they open, so they need no deadline and carry
	// no trace stamp: a per-tuple clock read and 16 wire bytes would be a tax.
	timed := batch > 1
	return func(ctx context.Context, emit stream.Emit) error {
		var fs *stream.FrameStore // the open frame; never empty while non-nil
		var opened time.Time
		var seq, sinceBarrier, epoch int64
		flush := func() {
			if fs == nil {
				return
			}
			var tr stream.Trace
			if timed {
				// The trace stamp reuses the frame-open timestamp the flush
				// deadline already tracks — zero extra clock reads on the hot
				// path. Origin 0: the packer always runs in the stamping
				// (coordinator or single) process.
				tr.IngestNs = opened.UnixNano()
			}
			emit(0, fs.Frame(tr))
			fs = nil
		}
		for {
			vec, mask, ok := src()
			if !ok {
				flush()
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			*tuplesIn++
			if len(vec) != dim || mask != nil && len(mask) != dim {
				continue
			}
			if fs == nil {
				fs = store()
				if timed {
					opened = time.Now()
				}
			}
			packRow(fs, seq, vec, mask)
			seq++
			if fs.Len() >= batch || timed && time.Since(opened) >= flushEvery {
				flush()
			}
			if barrierEvery > 0 {
				if sinceBarrier++; sinceBarrier >= barrierEvery {
					flush()
					epoch++
					emit(0, stream.Barrier{Epoch: epoch})
					sinceBarrier = 0
				}
			}
		}
	}
}

// packRow copies one row into the store's next slot. The packer has already
// checked its shape: vec is dim long and mask nil or dim long. The row is
// copied and checked for non-finite values in one pass; only an unmasked
// row that holds one takes the per-bin pass that derives its mask (NaN =
// missing), so every row leaves the packer complete or explicitly masked.
func packRow(fs *stream.FrameStore, seq int64, vec []float64, mask []bool) {
	i := fs.Len()
	v := fs.Add(seq, 1)
	if finite := mat.CopyFinite(v, vec); mask != nil {
		copy(fs.Mask(i), mask)
	} else if !finite {
		var m []bool
		for j, x := range v {
			if math.IsNaN(x) {
				if m == nil {
					m = fs.Mask(i)
					for k := range j {
						m[k] = true
					}
				}
				m[j] = false
			} else if m != nil {
				m[j] = true
			}
		}
	}
}
