package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/obs"
	"streampca/internal/stream"
	"streampca/internal/syncctl"
	"streampca/internal/wire"
)

// This file is the multi-process deployment of the Figure-2 graph: the
// coordinator keeps the source, split, sync controller and sink, while each
// PCA engine runs in its own process behind a wire.Edge. The graph shape is
// unchanged — TCP edges are spliced exactly where the split→engine and
// engine→sink channels used to be, and the sync fabric's control and
// snapshot messages ride the same sockets.
//
//	coordinator                                 worker i
//	source ─ split ─┬─ send₀ ══════ TCP ══════ recv ─┬─ pca ─ report ─ send
//	 ticker ─ ctl ─▷│   …                            │◁ control/snapshot
//	        router ─┴─ sendᵢ (loop edges)            ╵
//	   ▲────┴── recvᵢ (snapshots, reports) ◁═══════ engine's send half
//
// Control commands and peer snapshots are routed point-to-point by the
// coordinator: worker i's snapshot addressed To=j comes up edge i and goes
// back down edge j, so workers never dial each other and the paper's 1.5·N
// independence criterion still runs inside each engine (both on send and on
// merge), with send/skip evidence journaled worker-side via internal/obs.

// DistConfig assembles a distributed streaming-PCA run. The zero values of
// the sync fields mirror Config.
type DistConfig struct {
	// Engine is the per-engine PCA configuration (validated by RunCoordinator).
	Engine core.Config
	// Workers lists the TCP addresses of the worker processes; one engine
	// per worker. Required.
	Workers []string
	// Source provides the data; required.
	Source Source
	// Seed, SyncEvery, SyncStrategy, SyncFactor, Batch and FlushEvery mean
	// exactly what they mean on Config.
	Seed         uint64
	SyncEvery    time.Duration
	SyncStrategy syncctl.Strategy
	SyncFactor   float64
	Batch        int
	FlushEvery   time.Duration
	// BarrierEvery, when positive, weaves a checkpoint barrier into the
	// data stream every that many tuples; the split broadcasts it to every
	// engine, which snapshots its state on arrival.
	BarrierEvery int64
	// Retry is the per-edge reconnect policy (ingest defaults apply).
	Retry ingest.RetryPolicy
	// Chaos maps an engine index to a connection fault plan on its edge:
	// seeded per-message resets and dial partitions. Message-level faults
	// stay in-process, on ChaosConfig.Edge.
	Chaos map[int]*wire.ConnPlan
	// Obs, when non-nil, instruments the coordinator graph and journals
	// wire connect/down/EOS events.
	Obs *obs.Set
	// Cluster, when non-nil, absorbs the workers' periodic obs-reports into
	// the coordinator's cluster-wide view (metrics, merged trace, end-to-end
	// latency); nil drops the reports on arrival.
	Cluster *obs.ClusterCollector
}

// routePort maps a decoded wire message to the engine operator's input
// port on the worker side.
func routePort(msg stream.Message) int {
	switch msg.(type) {
	case stream.Control:
		return portControl
	case stream.Snapshot:
		return portSnapshot
	case wire.ClockEcho:
		// Toward the telemetry operator; with telemetry off the port is
		// unconnected and the echo is silently dropped.
		return portClock
	default:
		return portData
	}
}

// wireRouter is the coordinator's sync-plane switchboard. Inputs: ports
// 0..n-1 carry worker traffic (snapshots, reports) up their edges, port n
// carries controller commands over a loop edge. Outputs: ports 0..n-1 feed
// the per-worker send operators over loop edges (droppable, like the
// in-process sync fabric), port n feeds the result sink.
type wireRouter struct {
	n       int
	cluster *obs.ClusterCollector
}

// Process implements stream.Operator.
func (r *wireRouter) Process(port int, msg stream.Message, emit stream.Emit) {
	switch m := msg.(type) {
	case stream.Control:
		if m.Sender >= 0 && m.Sender < r.n {
			emit(m.Sender, m)
		}
	case stream.Snapshot:
		if m.To >= 0 && m.To < r.n {
			emit(m.To, m)
		}
	case wire.EngineReport:
		emit(r.n, stream.Result{Engine: m.Engine, Seq: m.Processed, Payload: m})
	// Clock probes never reach the router: the edge answers them at the
	// transport layer (recvLoop stamps and replies through the sender's
	// priority slot), so the echo cannot be lost to a full send queue the
	// way droppable loop-edge traffic can.
	case wire.ObsReport:
		if r.cluster != nil {
			_ = r.cluster.AbsorbJSON(m.Body)
		}
	}
}

// Flush implements stream.Operator.
func (r *wireRouter) Flush(stream.Emit) {}

// wireLaneFrames sizes a wire send node's queue in frames: enough to keep
// the edge busy through one socket stall, which is one kernel socket buffer
// (wire.SockBufBytes) of frames at the packer's batch width, clamped to
// [4, 64]. It depends on bytes only, not on the engine's chunk width: 6
// frames at d=400 and batch 64, 11 at batch 32.
func wireLaneFrames(dim, batch int) int {
	frameBytes := batch * dim * 8
	return min(max((wire.SockBufBytes+frameBytes-1)/frameBytes, 4), 64)
}

// wireQueues returns the coordinator's queue depths in messages: wireBuf for
// the split and each edge's send queue, syncBuf for the nodes that also carry
// the control plane.
//
// The in-process queue heuristic (nodeBuf, as shallow as 2 frames) is tuned
// for operators whose consumer is a local goroutine. A wire send node's
// consumer is a TCP socket: its writes block for the whole window-update
// round trip whenever the kernel buffer fills, and with a 2-deep queue that
// stall backs up through the split and idles every other edge (and, on a
// saturated host, the engines themselves). The floor that keeps each edge's
// lane full across those stalls is one socket buffer of frames
// (wireLaneFrames), so it scales with the frame size rather than being
// hardcoded. The router and the send operators also carry the control plane
// over droppable loop edges; their queues must additionally not be so
// shallow that data backpressure squeezes every snapshot out.
func wireQueues(p *plan) (wireBuf, syncBuf int) {
	lane := wireLaneFrames(p.Engine.Dim, p.batch)
	wireBuf = max(p.nodeBuf, lane)
	return wireBuf, max(wireBuf, 2*lane)
}

// corkFromFlush maps the packer's flush deadline to a wire cork deadline:
// the cork must be short enough that a corked lone frame still meets the
// producer's latency budget (an eighth of the deadline), but long enough
// to actually bridge an inter-frame gap (50µs floor), and never more than
// 1ms — past that, corking trades too much latency for amortization.
func corkFromFlush(d time.Duration) time.Duration {
	c := d / 8
	if c < 50*time.Microsecond {
		c = 50 * time.Microsecond
	}
	if c > time.Millisecond {
		c = time.Millisecond
	}
	return c
}

// edgeOptions builds the coordinator's end of engine i's edge. Batching has
// one control, Batch/FlushEvery: under batched transport the edge's
// coalescing cork is derived from the flush deadline, and without it a lone
// message is never held back.
func edgeOptions(p *plan, cfg *DistConfig, i, sendLane int) wire.EdgeOptions {
	opt := wire.EdgeOptions{
		Name: fmt.Sprintf("wire-%d", i),
		// The coordinator's hello assigns the worker its engine index.
		Hello: wire.Hello{Engine: i, Dim: p.Engine.Dim, Batch: p.batch, Epoch: 1},
		Retry: cfg.Retry,
		Chaos: cfg.Chaos[i],
		Obs:   p.Obs,
		// The send queue is the coalescing bound; the caller matches it to
		// the node queue so one writev can gather a full lane.
		SendLane: sendLane,
	}
	if p.batch > 1 {
		opt.Cork = corkFromFlush(p.FlushEvery)
	}
	return opt
}

// RunCoordinator drives a distributed run against already-listening
// workers and blocks until every worker reported its final state. The
// returned Result matches Run's, with Wire carrying per-edge transport
// counters.
func RunCoordinator(ctx context.Context, cfg DistConfig) (*Result, error) {
	n := len(cfg.Workers)
	if n == 0 {
		return nil, errors.New("pipeline: no workers")
	}
	p, err := newPlan(Config{
		Engine: cfg.Engine, NumEngines: n, Source: cfg.Source,
		Seed: cfg.Seed, SyncEvery: cfg.SyncEvery, SyncStrategy: cfg.SyncStrategy,
		SyncFactor: cfg.SyncFactor, Batch: cfg.Batch, FlushEvery: cfg.FlushEvery,
		Obs: cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	for i, plan := range cfg.Chaos {
		if plan == nil {
			continue
		}
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: chaos plan for engine %d: %w", i, err)
		}
	}

	edges := make([]*wire.Edge, n)
	defer func() {
		for _, e := range edges {
			if e != nil {
				e.Close()
			}
		}
	}()
	wireBuf, syncBuf := wireQueues(p)
	// Lane i is a TCP edge to worker i: the split feeds its send half, its
	// receive half feeds the router, and the router switches sync traffic
	// back down the edges and engine reports on to the sink.
	attach := func(_ context.Context, g *stream.Graph, split stream.NodeID,
		ctl *syncctl.Controller) (control, results []port, err error) {
		routerID := g.Add("wire-router", &wireRouter{n: n, cluster: cfg.Cluster},
			stream.WithBuffer(syncBuf))
		for i, addr := range cfg.Workers {
			opt := edgeOptions(p, &cfg, i, wireBuf)
			if ctl != nil {
				// Exclude unreachable engines from sync plans while their link
				// is down — the distributed analogue of MarkFailed on crash.
				opt.OnState = func(up bool) {
					if up {
						ctl.MarkRecovered(i)
					} else {
						ctl.MarkFailed(i)
					}
				}
			}
			edges[i] = wire.DialEdge(addr, opt)
			sendID := g.Add(fmt.Sprintf("wire-send-%d", i), edges[i].Operator(),
				stream.WithBuffer(syncBuf))
			if err := g.Connect(split, i, sendID, 0); err != nil {
				return nil, nil, err
			}
			recvID := g.AddSource(fmt.Sprintf("wire-recv-%d", i), edges[i].Source(nil))
			if err := g.Connect(recvID, 0, routerID, i); err != nil {
				return nil, nil, err
			}
			// Sync traffic back down an edge rides a loop edge: droppable, and
			// outside the EOS accounting (the data path ends the stream, not
			// the control plane).
			if err := g.ConnectLoop(routerID, i, sendID, 0); err != nil {
				return nil, nil, err
			}
		}
		// Port n is the router's controller input and its report output.
		at := []port{{routerID, n}}
		return at, at, nil
	}

	res, err := p.run(ctx, lanes{splitBuf: wireBuf, barrierEvery: cfg.BarrierEvery, attach: attach})
	if err != nil {
		return nil, err
	}
	res.Wire = make([]wire.EdgeStats, n)
	for i, e := range edges {
		res.Wire[i] = e.Stats()
	}
	return res, nil
}

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Engine is the PCA configuration; must match the coordinator's Dim.
	Engine core.Config
	// SyncFactor is the independence criterion multiplier (default 1.5).
	SyncFactor float64
	// Batch sizes the receive pool in rows per frame, floored at 1: frames
	// of up to Batch rows decode into recycled storage, larger ones allocate.
	Batch int
	// Retry is the edge reconnect policy.
	Retry ingest.RetryPolicy
	// Obs, when non-nil, instruments the worker graph and engine.
	Obs *obs.Set
	// ReportEvery, when positive, turns on the worker's telemetry plane:
	// every period the worker sends the coordinator an NTP-style clock probe
	// and an obs-report carrying its cumulative snapshot, the journal events
	// since the last report (with a fixed re-send overlap, so delivery is
	// at-least-once across reconnects), and recent operator spans for the
	// merged cluster trace. A final report ships at end of stream. When Obs
	// is nil a private set is created so reports still carry the engine and
	// runtime instruments.
	ReportEvery time.Duration
}

// reportOp unwraps the engine's flush-time Result into its EngineReport and
// forwards peer-bound snapshots unchanged: the messages a worker sends up.
type reportOp struct{}

// Process implements stream.Operator.
func (reportOp) Process(_ int, msg stream.Message, emit stream.Emit) {
	switch m := msg.(type) {
	case stream.Result:
		emit(0, m.Payload.(EngineStats))
	case stream.Snapshot:
		emit(0, m)
	}
}

// Flush implements stream.Operator.
func (reportOp) Flush(stream.Emit) {}

// telemetryOp is the worker's observability pump. Port 0 carries ticks from
// the telemetry ticker, port 1 the coordinator's clock echoes routed off the
// recv source. Each tick sends a fresh clock probe (so the offset estimate
// keeps converging) followed by an obs-report built against the current
// estimate; each echo folds a new offset sample into the clock state the PCA
// operator also reads for end-to-end stamping.
type telemetryOp struct {
	rep   *obs.Reporter
	clock *wire.ClockState
	node  int
}

// Process implements stream.Operator.
func (t *telemetryOp) Process(_ int, msg stream.Message, emit stream.Emit) {
	if e, ok := msg.(wire.ClockEcho); ok {
		t.clock.AddSample(e, time.Now().UnixNano())
		return
	}
	emit(0, wire.ClockProbe{Node: t.node, T1: time.Now().UnixNano()})
	t.emitReport(emit)
}

func (t *telemetryOp) emitReport(emit stream.Emit) {
	r := t.rep.Report(t.clock.OffsetNs(), t.clock.RTTNs())
	body, err := json.Marshal(r)
	if err != nil {
		return
	}
	emit(0, wire.ObsReport{Node: t.node, Seq: r.Seq, Body: body})
}

// Flush implements stream.Operator: one last report at end of stream, so the
// coordinator's cluster view always includes the session's final state even
// when the run is shorter than one report period.
func (t *telemetryOp) Flush(emit stream.Emit) {
	t.emitReport(emit)
}

// telemetryTicker emits one tick per period until the data stream ends
// (done closes) or ctx is cancelled. Unlike stream.Ticker it terminates on
// its own: the worker graph has no sink-driven cancel — every source must
// return for the run to drain, and it is the tick source's EOS (together
// with the recv source's) that flushes the telemetry operator's final
// report before the wire-send operator seals the session.
func telemetryTicker(period time.Duration, done <-chan struct{}) stream.SourceFunc {
	return func(ctx context.Context, emit stream.Emit) error {
		// An immediate first tick: a session shorter than one period must
		// still probe the coordinator clock and ship a report — the echo
		// round-trips in well under the data drain time, so even the
		// fastest run ends with a kept clock sample.
		emit(0, 0)
		t := time.NewTicker(period)
		defer t.Stop()
		for i := int64(1); ; i++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-done:
				return nil
			case <-t.C:
				emit(0, i)
			}
		}
	}
}

// ServeWorkerSession accepts one coordinator session on the listener and
// runs a single PCA engine against it: data, control and snapshot traffic
// come down the edge, snapshots and the final report go back up. The
// engine index is whatever the coordinator's hello assigned. Returns the
// engine's final stats.
func ServeWorkerSession(ctx context.Context, ln *wire.Listener, cfg WorkerConfig) (*EngineStats, error) {
	engCfg := cfg.Engine
	if err := engCfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SyncFactor == 0 {
		cfg.SyncFactor = 1.5
	}

	edge := ln.Edge()
	defer edge.Close()
	hello, err := edge.Peer(ctx)
	if err != nil {
		return nil, err
	}
	id := hello.Engine
	// Telemetry needs an instrument set to report from; make a private one
	// when the caller turned on reporting without providing observability.
	obsSet := cfg.Obs
	if cfg.ReportEvery > 0 && obsSet == nil {
		obsSet = obs.NewSet()
	}
	op, err := newPCAOperator(id, engCfg, cfg.SyncFactor, obsSet)
	if err != nil {
		return nil, err
	}
	var tel *telemetryOp
	if cfg.ReportEvery > 0 {
		clock := &wire.ClockState{}
		op.clock = clock
		tel = &telemetryOp{
			rep:   obs.NewReporter(obsSet, fmt.Sprintf("worker-%d", max(id, 0))),
			clock: clock,
			node:  id,
		}
	}

	g := stream.NewGraph()
	recvFn := edge.Source(routePort)
	var dataDone chan struct{}
	if tel != nil {
		// The telemetry ticker stops when the data stream does: the recv
		// source's return closes dataDone, the ticker returns, and EOS from
		// both flushes the telemetry operator's final report.
		dataDone = make(chan struct{})
		inner := recvFn
		recvFn = func(ctx context.Context, emit stream.Emit) error {
			defer close(dataDone)
			return inner(ctx, emit)
		}
	}
	src := g.AddSource("wire-recv", recvFn)
	pcaID := g.Add(fmt.Sprintf("pca%d", id), op, stream.WithBuffer(nodeBuffer))
	for _, port := range []int{portData, portControl, portSnapshot} {
		if err := g.Connect(src, port, pcaID, port); err != nil {
			return nil, err
		}
	}
	trans := g.Add("wire-report", reportOp{})
	if err := g.Connect(pcaID, portResult, trans, 0); err != nil {
		return nil, err
	}
	if err := g.Connect(pcaID, portSnapshotOut, trans, 1); err != nil {
		return nil, err
	}
	send := g.Add("wire-send", edge.Operator())
	if err := g.Connect(trans, 0, send, 0); err != nil {
		return nil, err
	}
	if tel != nil {
		telID := g.Add("wire-telemetry", tel)
		tick := g.AddSource("obs-ticker", telemetryTicker(cfg.ReportEvery, dataDone))
		if err := g.Connect(tick, 0, telID, 0); err != nil {
			return nil, err
		}
		if err := g.Connect(src, portClock, telID, 1); err != nil {
			return nil, err
		}
		if err := g.Connect(telID, 0, send, 0); err != nil {
			return nil, err
		}
	}
	if obsSet != nil {
		instrument(g, obsSet)
	}
	if err := g.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	st := op.stats()
	return &st, ctx.Err()
}

// RunWorker listens on addr and serves coordinator sessions until sessions
// have completed (0 = until ctx is cancelled). ready, when non-nil, is
// called once with the bound address — how the harness learns a port-0
// listener's port.
func RunWorker(ctx context.Context, addr string, sessions int, cfg WorkerConfig, ready func(net.Addr)) error {
	// With reporting on, the instrument set must exist before the listener so
	// the worker edge's transport gauges (bytes/frames per writev, cork
	// stalls) land in the set the reports ship.
	if cfg.ReportEvery > 0 && cfg.Obs == nil {
		cfg.Obs = obs.NewSet()
	}
	ln, err := wire.ListenEdge(addr, wire.EdgeOptions{
		Name:  "wire-worker",
		Hello: wire.Hello{Engine: -1, Dim: cfg.Engine.Dim, Batch: cfg.Batch, Epoch: 1},
		Dim:   cfg.Engine.Dim,
		Batch: cfg.Batch,
		Retry: cfg.Retry,
		Obs:   cfg.Obs,
	})
	if err != nil {
		return err
	}
	defer ln.Close()
	if ready != nil {
		ready(ln.Addr())
	}
	for served := 0; sessions <= 0 || served < sessions; served++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if _, err := ServeWorkerSession(ctx, ln, cfg); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
	}
	return nil
}
