package pipeline

import (
	"bytes"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/stream"
	"streampca/internal/wire"
)

// Engine operator port layout. Data and results are forward edges; control
// and snapshots ride the loop fabric.
const (
	portData     = 0 // in: stream.Frame (and stream.Barrier) from the source
	portControl  = 1 // in: stream.Control from the sync controller
	portSnapshot = 2 // in: stream.Snapshot from peer engines
	portClock    = 3 // in (worker recv only): wire.ClockEcho toward telemetry

	portResult      = 0 // out: EngineStats at flush
	portSnapshotOut = 1 // out: stream.Snapshot toward peers
)

// pcaOperator adapts a core.Engine to the stream runtime — the Go analogue
// of the paper's custom C++ "streaming PCA operator" (§III-A2). The runtime
// guarantees single-goroutine access, standing in for the mutex the paper
// uses inside the SPL operator's process method.
type pcaOperator struct {
	id         int
	engine     *core.Engine
	syncFactor float64

	// cfg is kept for crash-recovery: a revived operator resumes from its
	// last in-memory checkpoint (§III-C's periodic eigensystem saves).
	cfg       core.Config
	ckptEvery int64
	lastCkpt  []byte

	// inst and journal, when non-nil (Config.Obs), receive the engine's
	// gauges and tallies, published once per frame (publish), and its
	// control-plane events. rescues is the engine's rescue count at the last
	// publish, so a rise journals a scale-rescue.
	inst    *obs.EngineInstruments
	journal *obs.Journal
	rescues int64

	// e2e, when non-nil, receives the end-to-end tuple latency of every
	// traced frame: ingest stamp at the source to the outlier decision here,
	// in coordinator-clock nanoseconds. clock, when non-nil, supplies the
	// NTP-style offset that maps this process's clock onto the stamping
	// clock (nil in-process, where both stamps share one clock).
	e2e   *obs.Histogram
	clock *wire.ClockState

	// runBuf, maskBuf and updBuf are the frame path's reusable scratch: the
	// rows of a frame and their masks are collected into runBuf and maskBuf
	// and handed to ObserveBlockMasked with updBuf as the append target, so
	// the steady state absorbs whole frames without allocating.
	runBuf  [][]float64
	maskBuf [][]bool
	updBuf  []core.Update

	processed, outliers int64
	sent, merged        int64
	restarts            int64
	resumed             bool
}

// newPCAOperator builds engine id's operator around a fresh core.Engine. A
// non-nil set receives the engine's algorithm gauges, its control-plane
// events and the end-to-end latency of every traced frame.
func newPCAOperator(id int, cfg core.Config, syncFactor float64, set *obs.Set) (*pcaOperator, error) {
	en, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	op := &pcaOperator{id: id, engine: en, syncFactor: syncFactor, cfg: cfg}
	if set != nil {
		// A worker's id is whatever its peer's hello said; one that assigned
		// no index (-1) publishes as engine 0.
		op.inst = set.Engine(max(id, 0))
		op.journal = set.Journal()
		op.e2e = set.E2E()
	}
	return op, nil
}

// Process implements stream.Operator.
func (p *pcaOperator) Process(port int, msg stream.Message, emit stream.Emit) {
	switch port {
	case portData:
		switch t := msg.(type) {
		case stream.Frame:
			p.observeFrame(t)
		case stream.Barrier:
			// A checkpoint barrier riding the data stream (Chandy–Lamport
			// style): snapshot state at a consistent point. The distributed
			// runtime injects these so every engine checkpoints against the
			// same stream prefix regardless of channel depths.
			p.checkpoint()
		}
	case portControl:
		ctl, ok := msg.(stream.Control)
		if !ok {
			return
		}
		p.control(ctl, emit)
	case portSnapshot:
		snap, ok := msg.(stream.Snapshot)
		if !ok {
			return
		}
		p.absorb(snap)
	}
}

// observeFrame absorbs a frame — a frame of one included — in one call to the
// engine's block-incremental update, gappy rows and all (the engine patches
// them inside its chunks). The packer checked every row's shape and gave
// every NaN-bearing row its mask, so the rows go in as they are; rows the
// engine still rejects (non-finite observed bins, too few observed bins, or
// a hostile peer's malformed frame) are dropped there, the robust estimator
// treating data quality as a statistical property, not a fatal one. The
// frame's storage is released back to the transport pool afterwards.
func (p *pcaOperator) observeFrame(f stream.Frame) {
	prev, prevOut := p.processed, p.outliers
	rows, masks := p.runBuf[:0], p.maskBuf[:0]
	for _, t := range f.Tuples {
		rows, masks = append(rows, t.Vec), append(masks, t.Mask)
	}
	out, _ := p.engine.ObserveBlockMasked(rows, masks, p.updBuf[:0])
	p.processed += int64(len(out))
	for _, u := range out {
		if u.Outlier {
			p.outliers++
		}
		if u.Initialized && p.journal != nil {
			p.journal.Append(obs.Event{Kind: obs.EvEngineInit, Engine: p.id, N: u.Seq, A: u.Sigma2})
		}
	}
	p.runBuf, p.maskBuf, p.updBuf = rows[:0], masks[:0], out[:0]
	p.publish(p.processed-prev, p.outliers-prevOut)
	p.recordE2E(f)
	if f.Release != nil {
		f.Release()
	}
	p.maybeCheckpoint(prev)
}

// publish is the engine's one telemetry writer, run once per frame: it adds
// the frame's rows and outliers (warm-up rows included) to the tallies, sets
// σ², N_eff, since-sync and the spectrum once the engine is ready, and
// journals a scale-rescue when the engine's rescue count rose.
func (p *pcaOperator) publish(rows, outliers int64) {
	if p.inst == nil {
		return
	}
	p.inst.Observations.Add(rows)
	p.inst.Outliers.Add(outliers)
	if !p.engine.Ready() {
		return
	}
	vals, sigma2, effN := p.engine.Spectrum()
	p.inst.RecordEigen(sigma2, effN, p.engine.SinceSync(), vals, p.cfg.Components)
	if r := p.engine.Rescues(); r > p.rescues {
		p.rescues = r
		p.journal.Append(obs.Event{Kind: obs.EvScaleRescue, Engine: p.id, N: r, A: sigma2})
	}
}

// recordE2E records the frame's end-to-end tuple latency: the span from the
// ingest stamp the source wrote into the frame to the outlier decision that
// just completed here. Across processes the local clock is first mapped onto
// the stamping (coordinator) clock by the NTP-style offset θ, so the sample
// is wrong by at most the offset error (≤ rtt/2 of the kept probe). One
// sample per frame: every tuple in the frame shares the ingest stamp and
// finished in the same ObserveBlock pass.
func (p *pcaOperator) recordE2E(f stream.Frame) {
	if p.e2e == nil || f.Trace.IngestNs == 0 {
		return
	}
	now := time.Now().UnixNano()
	if p.clock != nil {
		now += p.clock.OffsetNs()
	}
	lat := now - f.Trace.IngestNs
	if lat < 0 {
		lat = 0 // clock skew beyond θ's error bound; clamp, don't corrupt
	}
	p.e2e.Record(lat)
}

// maybeCheckpoint saves engine state when the processed count crossed a
// checkpoint boundary since prev — frames advance the count by many at once,
// so the period is a crossing check, not a divisibility check.
func (p *pcaOperator) maybeCheckpoint(prev int64) {
	if p.ckptEvery > 0 && p.processed/p.ckptEvery != prev/p.ckptEvery {
		p.checkpoint()
	}
}

// checkpoint serializes the engine state through the real SaveCheckpoint
// path; before warm-up completes there is nothing to save and the previous
// checkpoint (if any) is kept.
func (p *pcaOperator) checkpoint() {
	var buf bytes.Buffer
	if err := p.engine.SaveCheckpoint(&buf); err == nil {
		p.lastCkpt = buf.Bytes()
		if p.journal != nil {
			p.journal.Append(obs.Event{
				Kind: obs.EvCheckpointWrite, Engine: p.id,
				N: p.processed, A: float64(len(p.lastCkpt)),
			})
		}
	}
}

// restore rebuilds the engine after a crash, replaying the last checkpoint
// through ReadEigensystem/ResumeEngine — the same path an operator restarted
// from disk would take. With no checkpoint yet, the engine restarts cold and
// re-enters warm-up. Called on the node's own goroutine via Graph.Revive, so
// no locking is needed.
func (p *pcaOperator) restore() {
	p.restarts++
	p.resumed = false
	defer func() {
		// Rebase the rescue baseline on the replacement engine.
		p.rescues = p.engine.Rescues()
		if p.journal != nil {
			resumed := 0.0
			if p.resumed {
				resumed = 1
			}
			p.journal.Append(obs.Event{
				Kind: obs.EvCheckpointRestore, Engine: p.id,
				N: p.restarts, A: resumed,
			})
		}
	}()
	if p.lastCkpt != nil {
		if es, err := core.ReadEigensystem(bytes.NewReader(p.lastCkpt)); err == nil {
			if en, rerr := core.ResumeEngine(p.cfg, es); rerr == nil {
				p.engine = en
				p.resumed = true
				return
			}
		}
	}
	if en, err := core.NewEngine(p.cfg); err == nil {
		p.engine = en
	}
}

// control handles a sync command: when this engine is the designated sender
// and its own independence criterion holds (§II-C), it shares a snapshot
// with every receiver.
func (p *pcaOperator) control(ctl stream.Control, emit stream.Emit) {
	if ctl.Sender != p.id {
		return
	}
	if !p.engine.ShouldSync(p.syncFactor) {
		p.journalSync(obs.EvSyncSkip, ctl.Round)
		return
	}
	snap, err := p.engine.Snapshot()
	if err != nil {
		return
	}
	for _, to := range ctl.Receivers {
		emit(portSnapshotOut, stream.Snapshot{
			Round: ctl.Round, From: p.id, To: to, State: snap.Clone(),
		})
	}
	p.journalSync(obs.EvSyncSend, ctl.Round)
	p.engine.MarkSynced()
	p.sent++
}

// journalSync records a send/skip decision with the evidence behind it:
// A is the observations absorbed since the last sync, B the 1.5·N-style
// threshold it was compared against (§II-C).
func (p *pcaOperator) journalSync(kind obs.EventKind, round int64) {
	if p.journal == nil {
		return
	}
	p.journal.Append(obs.Event{
		Kind: kind, Engine: p.id, N: round,
		A: float64(p.engine.SinceSync()),
		B: p.syncFactor * p.cfg.WindowN(),
	})
}

// absorb merges a peer snapshot addressed to this engine, provided the
// receiving side also satisfies the independence criterion — both sides
// check, as the paper has every node "verify every time that the
// eigensystems are statistically independent".
func (p *pcaOperator) absorb(snap stream.Snapshot) {
	if snap.To != p.id {
		return
	}
	es, ok := snap.State.(*core.Eigensystem)
	if !ok {
		return
	}
	if !p.engine.ShouldSync(p.syncFactor) {
		return
	}
	if err := p.engine.MergeSnapshot(es); err != nil {
		return
	}
	if p.journal != nil {
		p.journal.Append(obs.Event{
			Kind: obs.EvSyncMerge, Engine: p.id,
			N: snap.Round, A: float64(snap.From),
		})
	}
	p.merged++
}

// stats returns the engine's counters so far (Final is left to Flush).
func (p *pcaOperator) stats() EngineStats {
	return EngineStats{
		Engine:                p.id,
		Processed:             p.processed,
		Outliers:              p.outliers,
		SnapshotsSent:         p.sent,
		MergesApplied:         p.merged,
		Restarts:              p.restarts,
		ResumedFromCheckpoint: p.resumed,
	}
}

// Flush implements stream.Operator: it reports the engine's final state.
func (p *pcaOperator) Flush(emit stream.Emit) {
	st := p.stats()
	if snap, err := p.engine.Snapshot(); err == nil {
		st.Final = snap
	}
	emit(portResult, st)
}
