package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// envelope is the unit moved through an operator's input queue.
type envelope struct {
	port int
	msg  Message
	eos  bool // end-of-stream marker for one non-loop inbound edge
	// revive clears the operator's failed state; reviveFn (optional) runs
	// first, on the operator's goroutine, to restore operator state.
	revive   bool
	reviveFn func()
}

// opRuntime executes one node. Operators drain their own input queue on
// their own goroutine; sources run their SourceFunc and have no queue.
type opRuntime struct {
	n  *node
	in chan envelope // nil for sources
	// pendingEOS is the number of non-loop inbound edges that have not yet
	// ended; the operator flushes and its goroutine exits when it reaches
	// zero.
	pendingEOS int
	// failed marks an operator that panicked; it drops traffic (but still
	// honors the EOS protocol) until revived. Owned by the goroutine.
	failed bool
	run    *runtime
	emit   Emit // built once when Run starts
}

// runtime is the live state of a running graph.
type runtime struct {
	g      *Graph
	ops    []*opRuntime // indexed by NodeID
	ctx    context.Context
	cancel context.CancelFunc
	epoch  time.Time // deliveries are timed as monotonic offsets from it
}

// clock is the monotonic time since the run's epoch, in nanoseconds.
func (rt *runtime) clock() int64 { return int64(time.Since(rt.epoch)) }

// Run executes the graph until every source has finished and all data
// (non-loop) edges have drained, or until ctx is cancelled — the normal way
// to stop an endless or cyclic pipeline, in which case Run returns
// ctx.Err(). It may be called once.
//
// Cancellation: an operator finishes its current delivery and starts no
// other once it has seen the cancel, so a node drains at most its queue
// after cancel, and a sender blocked on a full data edge gives up the send.
//
// Termination protocol: end-of-stream travels only over non-loop edges.
// Operators flush once all their non-loop inputs have ended, and operators
// with no inputs at all flush as soon as Run starts. Operators whose inputs
// are exclusively loop edges have no end-of-stream to wait for and never
// run: their goroutine returns at once, so messages sent to them fill the
// queue and are then dropped at the sender. Graphs whose control fabric is
// driven by a non-terminating source (e.g. a sync ticker) therefore
// terminate via ctx cancellation, which the paper's endless-stream setting
// makes the natural mode anyway.
func (g *Graph) Run(ctx context.Context) error {
	if g.ran {
		return errors.New("stream: graph already ran")
	}
	g.ran = true
	if err := g.validate(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rt := &runtime{g: g, ops: make([]*opRuntime, len(g.nodes)), ctx: ctx, cancel: cancel, epoch: time.Now()}
	defer func() {
		g.mu.Lock()
		g.live = nil
		g.mu.Unlock()
	}()
	for i, n := range g.nodes {
		p := &opRuntime{n: n, pendingEOS: n.nonLoop, run: rt, emit: rt.emitter(n)}
		if n.src == nil {
			p.in = make(chan envelope, n.buf)
		}
		rt.ops[i] = p
	}

	// Publish the runtime only after the queues exist: Revive and the
	// queue-aware Metrics read rt.ops through g.live concurrently.
	g.mu.Lock()
	g.live = rt
	g.mu.Unlock()

	var wg sync.WaitGroup
	errCh := make(chan error, len(g.nodes))
	for _, p := range rt.ops {
		wg.Add(1)
		if p.in != nil {
			go func(p *opRuntime) {
				defer wg.Done()
				p.loop()
			}(p)
			continue
		}
		go func(n *node, emit Emit) {
			defer wg.Done()
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						g.recordFailure(NodeFailure{
							Node: n.id, Name: n.name,
							Err: fmt.Errorf("source %q panicked: %v", n.name, r),
						})
					}
				}()
				return n.src(ctx, emit)
			}()
			if err != nil && !errors.Is(err, context.Canceled) {
				errCh <- fmt.Errorf("source %q: %w", n.name, err)
				rt.cancel()
			}
			rt.finishNode(n)
		}(p.n, p.emit)
	}

	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return ctx.Err()
}

// loop is the operator goroutine body: drain envelopes until every non-loop
// input ended or the run is cancelled. A receive first tries without
// blocking; only an empty queue also waits on ctx, and resets mark (the last
// delivery's end, the next one's start) so idle waits never count as busy.
func (p *opRuntime) loop() {
	if p.n.inbound == 0 {
		p.finish() // nothing can ever arrive: flush at once
		return
	}
	done := p.run.ctx.Done()
	mark := int64(-1)
	for p.pendingEOS > 0 {
		select {
		case <-done:
			return
		default:
		}
		var env envelope
		select {
		case env = <-p.in:
		default:
			mark = -1
			select {
			case env = <-p.in:
			case <-done:
				return
			}
		}
		switch {
		case env.revive:
			p.revive(env.reviveFn)
			mark = -1
		case env.eos:
			if p.pendingEOS--; p.pendingEOS == 0 {
				p.finish()
			}
		default:
			mark = p.deliver(env.port, env.msg, mark)
		}
	}
}

// revive restores a failed operator: fn runs first (on this goroutine, so
// it can safely rebuild operator state), then the failed flag clears.
func (p *opRuntime) revive(fn func()) {
	if !p.failed {
		return
	}
	if fn != nil {
		fn()
	}
	p.failed = false
}

// deliver runs one message through the operator, timed from start (a clock
// offset, or -1 to read the clock now) to the returned end (-1 if untimed).
// An operator panic is converted into a node-failed event: the node drops
// traffic (counted, and dropped frames released) until revived, and the
// process keeps running.
func (p *opRuntime) deliver(port int, msg Message, start int64) int64 {
	n := p.n
	if p.failed {
		n.metrics.dropped.Add(1)
		ReleaseFrame(msg)
		return -1
	}
	if start < 0 {
		start = p.run.clock()
	}
	n.metrics.in.Add(1)
	w := tupleWeight(msg)
	if w > 0 {
		n.metrics.tuplesIn.Add(w)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.fail(fmt.Errorf("operator %q panicked: %v", n.name, r))
			}
		}()
		n.op.Process(port, msg, p.emit)
	}()
	end := p.run.clock()
	n.metrics.busyNs.Add(end - start - n.blockedNs)
	n.blockedNs = 0
	if inst := n.metrics.inst; inst != nil {
		inst.RecordProcess(p.run.epoch.UnixNano()+start, end-start, w, len(p.in))
	}
	return end
}

// fail marks the operator failed and publishes the node-failed event.
func (p *opRuntime) fail(err error) {
	p.failed = true
	p.run.g.recordFailure(NodeFailure{Node: p.n.id, Name: p.n.name, Err: err})
}

// finish flushes the operator and propagates EOS to its downstream non-loop
// edges. A failed operator skips the flush (its state is not trustworthy)
// but still propagates EOS so the rest of the graph drains normally.
func (p *opRuntime) finish() {
	n := p.n
	if !p.failed {
		start := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.fail(fmt.Errorf("operator %q panicked in flush: %v", n.name, r))
				}
			}()
			n.op.Flush(p.emit)
		}()
		n.metrics.busyNs.Add(int64(time.Since(start)) - n.blockedNs)
		n.blockedNs = 0
	}
	p.run.finishNode(n)
}

// finishNode sends EOS along every non-loop out-edge of n, after draining
// any edge taps so bounded-delay faults cannot swallow messages at
// end-of-stream.
func (rt *runtime) finishNode(n *node) {
	for _, es := range n.outs {
		for _, e := range es {
			if e.tap != nil {
				fwd, dropped := e.tap.Drain()
				rt.forward(n, e, fwd, dropped)
			}
		}
	}
	for _, es := range n.outs {
		for _, e := range es {
			if e.loop {
				continue
			}
			select {
			case rt.ops[e.to.id].in <- envelope{port: e.toPort, eos: true}:
			case <-rt.ctx.Done():
			}
		}
	}
}

// forward charges a tap's verdict to n's metrics and sends the messages the
// tap let through across e.
func (rt *runtime) forward(n *node, e *edge, fwd []Message, dropped int) {
	if dropped > 0 {
		n.metrics.dropped.Add(int64(dropped))
	}
	n.metrics.out.Add(int64(len(fwd)))
	for _, m := range fwd {
		if w := tupleWeight(m); w > 0 {
			n.metrics.tuplesOut.Add(w)
		}
		rt.sendOnEdge(n, e, m)
	}
}

// sendOnEdge moves one message into the queue of e's destination: blocking
// for data edges (until cancellation), dropping for loop edges when the
// queue is full so cycles can never deadlock. A dropped message counts
// toward the sender's Dropped metric and its frame is released. A queue
// with room takes the message on the first, non-blocking try; a blocked
// wait is timed, on that slow path only, and left out of the sender's Busy.
func (rt *runtime) sendOnEdge(n *node, e *edge, msg Message) {
	dst := rt.ops[e.to.id].in
	env := envelope{port: e.toPort, msg: msg}
	select {
	case dst <- env:
		return
	default:
	}
	if e.loop {
		n.metrics.dropped.Add(1)
		ReleaseFrame(msg)
		return
	}
	start := rt.clock()
	select {
	case dst <- env:
	case <-rt.ctx.Done():
	}
	n.blockedNs += rt.clock() - start
}

// emitter returns the Emit closure for node n. Tapped edges run every
// message through their Tap first; discarded messages count toward the
// sender's Dropped metric.
func (rt *runtime) emitter(n *node) Emit {
	return func(port int, msg Message) {
		es := n.outs[port]
		if len(es) == 0 {
			return
		}
		for _, e := range es {
			if e.tap != nil {
				fwd, dropped := e.tap.Tap(msg)
				rt.forward(n, e, fwd, dropped)
				continue
			}
			n.metrics.out.Add(1)
			if w := tupleWeight(msg); w > 0 {
				n.metrics.tuplesOut.Add(w)
			}
			rt.sendOnEdge(n, e, msg)
		}
	}
}
