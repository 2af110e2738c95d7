package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streampca/internal/ingest"
	"streampca/internal/obs"
	"streampca/internal/stream"
)

// ErrEdgeClosed is returned once an edge has been Closed; pending and
// future sends drop, the receive source ends.
var ErrEdgeClosed = errors.New("wire: edge closed")

// handshakeTimeout bounds the hello exchange on a fresh connection; a peer
// that connects but never speaks is torn down and retried.
const handshakeTimeout = 5 * time.Second

// EdgeOptions configures one remote edge.
type EdgeOptions struct {
	// Name labels the edge in journals and stats (e.g. "wire-send-2").
	Name string
	// Hello is announced to the peer on every (re)connect.
	Hello Hello
	// Dim and Batch size the receive pool (see stream.NewFramePool); Dim 0
	// disables pooling (frames then allocate per message — correct, just
	// slower).
	Dim, Batch int
	// Retry is the reconnect backoff policy (ingest defaults apply).
	Retry ingest.RetryPolicy
	// DialTimeout bounds one dial attempt (default 2 s). Dial side only.
	DialTimeout time.Duration
	// Chaos, when non-nil, injects seeded connection faults: resets rolled
	// per sent message, and partitions on the dial side.
	Chaos *ConnPlan
	// Obs, when non-nil, journals connect/drop/EOS events and publishes
	// the edge's syscall-amortization gauges.
	Obs *obs.Set
	// OnState, when non-nil, is called with false when the link drops and
	// true when it is re-established — the hook the coordinator uses to
	// exclude an engine from sync planning while it is unreachable. Called
	// from edge goroutines; must be safe for concurrent use.
	OnState func(up bool)
	// SendLane sizes the edge's send queue in messages (default 16). The
	// sender drains up to a full lane into one coalesced writev.
	SendLane int
}

// Edge is one full-duplex TCP link a graph splices in place of a channel
// edge: Operator() is the send half (a stream.Operator), Source() the
// receive half (a stream.SourceFunc). The edge reconnects transparently
// with seeded backoff — the dial side redials, the accept side re-accepts
// — and keeps cumulative tuple-weighted stats across reconnects.
type Edge struct {
	opt   EdgeOptions
	addr  string       // dial side: peer address
	ln    net.Listener // accept side: shared listener
	chaos *connChaos
	pool  *stream.FramePool
	wi    *obs.WireInstruments

	// closedCh closes when the edge is Closed; it wakes the send loop out
	// of its empty-queue wait.
	closedCh chan struct{}

	// echoCh hands clock echoes from the receive loop to the send loop:
	// a probe is answered at the transport layer (T2 = T3 = the stamp taken
	// right at decode) instead of riding the graph's droppable sync loops,
	// so an echo is never lost to data-plane backpressure. Capacity 1,
	// newest wins — only the freshest probe matters and each echo carries
	// its own T1, so overwriting a stale one loses nothing.
	echoCh chan ClockEcho

	// testWrapConn, when non-nil, wraps each steady-state connection before
	// the encoder sees it — the test seam for failing a specific write of a
	// coalesced batch mid-writev.
	testWrapConn func(net.Conn) net.Conn

	mu        sync.Mutex
	conn      net.Conn
	enc       *Encoder
	dec       *Decoder
	gen       int
	downGen   int // highest generation already noted down
	closed    bool
	repairing chan struct{}
	backoff   *ingest.Backoff
	peer      Hello
	havePeer  bool

	reconnects atomic.Int64
	drops      atomic.Int64
	abandoned  atomic.Int64
	tuplesOut  atomic.Int64
	tuplesIn   atomic.Int64
	framesOut  atomic.Int64
	framesIn   atomic.Int64
	msgsOut    atomic.Int64
	msgsIn     atomic.Int64
	bytesOut   atomic.Int64
	writevs    atomic.Int64
}

// EdgeStats is a point-in-time copy of an edge's cumulative counters. They
// survive reconnects: only a process restart resets them.
type EdgeStats struct {
	// Name is the edge label.
	Name string
	// Gen is the connection generation (1 after the first connect).
	Gen int
	// Reconnects counts successful re-links, Drops noted link losses, and
	// Abandoned messages given up on after a terminal failure.
	Reconnects, Drops, Abandoned int64
	// TuplesSent/TuplesRecv weigh frames by their batch size.
	TuplesSent, TuplesRecv int64
	// FramesSent/FramesRecv count dense frames, MsgsSent/MsgsRecv all
	// messages.
	FramesSent, FramesRecv, MsgsSent, MsgsRecv int64
	// BytesSent counts payload bytes the kernel accepted and Writevs the
	// write calls that carried them — BytesSent/Writevs is the syscall
	// amortization the coalescing sender exists to maximize.
	BytesSent, Writevs int64
	// CorkStalls is always 0: the sender holds no message back waiting for
	// a burst. The field stays for readers that still report it.
	CorkStalls int64
	// Resets and Partitions count injected connection faults (chaos only).
	Resets, Partitions int64
	// PeerEpoch is the session epoch the peer last announced (0 before the
	// handshake); a jump means the peer restarted and reset its counters.
	PeerEpoch int64
}

func newEdge(opt EdgeOptions) *Edge {
	e := &Edge{
		opt:      opt,
		pool:     stream.NewFramePool(opt.Dim, opt.Batch),
		backoff:  ingest.NewBackoff(opt.Retry),
		closedCh: make(chan struct{}),
		echoCh:   make(chan ClockEcho, 1),
	}
	if opt.Chaos != nil {
		e.chaos = newConnChaos(*opt.Chaos)
	}
	if opt.Obs != nil && opt.Name != "" {
		e.wi = opt.Obs.Wire(opt.Name)
	}
	return e
}

// DialEdge returns the dial side of a remote edge. No I/O happens until
// the first send, receive or Peer call; from then on the edge redials with
// the configured backoff whenever the link drops.
func DialEdge(addr string, opt EdgeOptions) *Edge {
	e := newEdge(opt)
	e.addr = addr
	return e
}

// Listener accepts the peer side of remote edges. One listener serves
// sequential sessions: each Edge() call returns an edge bound to the next
// accepted connection (re-accepting on drops).
type Listener struct {
	ln  net.Listener
	opt EdgeOptions
}

// ListenEdge binds addr (e.g. "127.0.0.1:0") and returns the accept-side
// listener. opt applies to every edge it hands out.
func ListenEdge(addr string, opt EdgeOptions) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln, opt: opt}, nil
}

// Addr returns the bound address (useful with port 0).
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting; it unblocks any edge waiting in accept.
func (l *Listener) Close() error { return l.ln.Close() }

// Edge returns an edge that accepts its connections from this listener.
// Use one edge at a time per listener.
func (l *Listener) Edge() *Edge {
	e := newEdge(l.opt)
	e.ln = l.ln
	return e
}

// Close tears the edge down: the current connection closes, blocked sends
// and receives finish with ErrEdgeClosed. It does not close a shared
// Listener.
func (e *Edge) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	c := e.conn
	e.conn = nil
	close(e.closedCh)
	e.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Peer blocks until the first handshake completed and returns the peer's
// Hello — how a worker learns which engine index the coordinator assigned
// its connection. It triggers the first connect if none happened yet.
func (e *Edge) Peer(ctx context.Context) (Hello, error) {
	e.mu.Lock()
	have := e.havePeer
	e.mu.Unlock()
	if !have {
		// Drive the first connect from this goroutine; concurrent users
		// coordinate through the single-flight repair.
		stop := context.AfterFunc(ctx, e.Close)
		_, _, _, _, err := e.link(0)
		stop()
		if err != nil {
			if ctx.Err() != nil {
				return Hello{}, ctx.Err()
			}
			return Hello{}, err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peer, nil
}

// Stats returns the edge's cumulative counters.
func (e *Edge) Stats() EdgeStats {
	e.mu.Lock()
	gen := e.gen
	peerEpoch := int64(0)
	if e.havePeer {
		peerEpoch = e.peer.Epoch
	}
	e.mu.Unlock()
	s := EdgeStats{
		Name:       e.opt.Name,
		Gen:        gen,
		Reconnects: e.reconnects.Load(),
		Drops:      e.drops.Load(),
		Abandoned:  e.abandoned.Load(),
		TuplesSent: e.tuplesOut.Load(),
		TuplesRecv: e.tuplesIn.Load(),
		FramesSent: e.framesOut.Load(),
		FramesRecv: e.framesIn.Load(),
		MsgsSent:   e.msgsOut.Load(),
		MsgsRecv:   e.msgsIn.Load(),
		BytesSent:  e.bytesOut.Load(),
		Writevs:    e.writevs.Load(),
		PeerEpoch:  peerEpoch,
	}
	if e.chaos != nil {
		s.Resets = e.chaos.Resets()
		s.Partitions = e.chaos.Partitions()
	}
	return s
}

func (e *Edge) journal(kind obs.EventKind, n int64, a float64) {
	if e.opt.Obs == nil {
		return
	}
	engine := -1
	e.mu.Lock()
	if e.havePeer {
		engine = e.peer.Engine
	}
	e.mu.Unlock()
	e.opt.Obs.Journal().Append(obs.Event{
		Kind: kind, Node: e.opt.Name, Engine: engine, N: n, A: a,
	})
}

// noteDown records one link loss exactly once per generation (the send and
// receive halves usually both notice), journaling it and notifying
// OnState.
func (e *Edge) noteDown(gen int, injected bool) {
	e.mu.Lock()
	if gen <= e.downGen || e.closed {
		e.mu.Unlock()
		return
	}
	e.downGen = gen
	e.mu.Unlock()
	e.drops.Add(1)
	a := 0.0
	if injected {
		a = 1
	}
	e.journal(obs.EvWireDown, int64(gen), a)
	if e.opt.OnState != nil {
		e.opt.OnState(false)
	}
}

// link returns the current connection once its generation exceeds after,
// establishing or re-establishing it as needed. Exactly one caller runs
// the repair; the other half waits on it.
func (e *Edge) link(after int) (net.Conn, *Encoder, *Decoder, int, error) {
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, nil, nil, 0, ErrEdgeClosed
		}
		if e.gen > after && e.conn != nil {
			c, enc, dec, gen := e.conn, e.enc, e.dec, e.gen
			e.mu.Unlock()
			return c, enc, dec, gen, nil
		}
		if ch := e.repairing; ch != nil {
			e.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		e.repairing = ch
		e.mu.Unlock()

		err := e.repair()

		e.mu.Lock()
		e.repairing = nil
		e.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, nil, nil, 0, err
		}
	}
}

// repair establishes the next connection generation: dial (with backoff
// and partition gates) or accept, then the hello handshake. Resets are
// rolled only for steady-state messages, so injected faults cannot wedge
// connection establishment itself.
func (e *Edge) repair() error {
	e.mu.Lock()
	stale := e.conn
	e.conn = nil
	reconnecting := e.gen > 0
	e.mu.Unlock()
	if stale != nil {
		stale.Close()
	}

	for {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return ErrEdgeClosed
		}
		c, attempts, err := e.establish()
		if err != nil {
			return err
		}
		tuneConn(c)
		peer, err := e.handshake(c)
		if err != nil {
			c.Close()
			// An aborted handshake on the accept side is a stray or dead
			// dialer: accept again. On the dial side it costs one backoff
			// step like any failed attempt.
			if e.addr != "" {
				e.backoffSleep()
			}
			continue
		}
		wire := c
		if e.testWrapConn != nil {
			wire = e.testWrapConn(c)
		}
		enc := NewEncoder(wire, false)
		dec := NewDecoder(c, e.pool, 0)
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return ErrEdgeClosed
		}
		e.conn = c
		e.enc, e.dec = enc, dec
		e.gen++
		gen := e.gen
		e.peer = peer
		e.havePeer = true
		e.mu.Unlock()
		if reconnecting {
			e.reconnects.Add(1)
		}
		e.backoff.Reset()
		e.journal(obs.EvWireConnect, int64(gen), float64(attempts))
		if e.opt.OnState != nil {
			e.opt.OnState(true)
		}
		return nil
	}
}

// SockBufBytes is the kernel send/receive buffer size requested for edge
// connections: ten 32-row d=400 frames instead of the ~2 the platform
// default holds. A coordinator's send lane queues as many bytes again.
const SockBufBytes = 1 << 20

// tuneConn widens the kernel socket buffers on real TCP connections. When
// coordinator and workers time-slice one core, the writer can only burst
// until the socket buffer fills before the kernel forces a switch to the
// reader; deeper buffers mean one switch drains a whole lane of frames
// rather than two. Non-TCP conns (in-memory test pipes) just keep their
// defaults.
func tuneConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(SockBufBytes)
		tc.SetWriteBuffer(SockBufBytes)
	}
}

// establish produces one raw connection: a backoff-paced dial loop on the
// dial side, one accept on the accept side. It reports how many dial
// attempts were used.
func (e *Edge) establish() (net.Conn, int, error) {
	if e.addr == "" {
		// Accept with a short deadline so Close() (which cannot touch the
		// shared listener) still unblocks this edge promptly.
		for {
			e.mu.Lock()
			closed := e.closed
			e.mu.Unlock()
			if closed {
				return nil, 0, ErrEdgeClosed
			}
			if tl, ok := e.ln.(*net.TCPListener); ok {
				tl.SetDeadline(time.Now().Add(200 * time.Millisecond))
			}
			c, err := e.ln.Accept()
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					continue
				}
				// A closed listener usually accompanies a closed edge; report
				// the clean shutdown rather than the racing accept error.
				e.mu.Lock()
				closed = e.closed
				e.mu.Unlock()
				if closed {
					return nil, 0, ErrEdgeClosed
				}
				return nil, 0, fmt.Errorf("wire: accept on %q: %w", e.opt.Name, err)
			}
			return c, 1, nil
		}
	}
	timeout := e.opt.DialTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	max := e.opt.Retry.MaxAttempts
	if max <= 0 {
		max = 5
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return nil, attempt, ErrEdgeClosed
		}
		lastErr = nil
		if e.chaos != nil {
			lastErr = e.chaos.dialGate()
		}
		if lastErr == nil {
			c, err := net.DialTimeout("tcp", e.addr, timeout)
			if err == nil {
				return c, attempt, nil
			}
			lastErr = err
		}
		if attempt >= max {
			return nil, attempt, fmt.Errorf("wire: dialing %s for %q: %w after %d attempts",
				e.addr, e.opt.Name, lastErr, attempt)
		}
		e.backoffSleep()
	}
}

func (e *Edge) backoffSleep() {
	e.mu.Lock()
	d := e.backoff.Next()
	e.mu.Unlock()
	time.Sleep(d)
}

// handshake exchanges hellos on a fresh raw connection under a deadline.
// It reads exactly the hello's bytes — no buffered reader — so data the
// peer pipelines right behind its hello is left on the socket for the
// steady-state decoder.
func (e *Edge) handshake(c net.Conn) (Hello, error) {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	defer c.SetDeadline(time.Time{})
	enc := NewEncoder(c, false)
	if err := enc.Encode(e.opt.Hello); err != nil {
		return Hello{}, err
	}
	var raw [helloWireLen]byte
	if _, err := io.ReadFull(c, raw[:]); err != nil {
		return Hello{}, fmt.Errorf("wire: reading peer hello: %w", err)
	}
	return parseHello(raw[:])
}

// defaultLane is the send queue depth when SendLane is zero (messages). It
// is also the coalescing bound: at most one lane of messages is gathered
// into a single writev.
const defaultLane = 16

// markSent counts one delivered message and recycles its frame storage.
// The kernel copies writev payloads synchronously, so by the time a flush
// has returned the pooled buffer is free to reuse.
func (e *Edge) markSent(msg stream.Message) {
	// EOS is stream framing, not payload: keep MsgsSent comparable to the
	// peer's MsgsRecv, which stops counting at EOS.
	if _, isEOS := msg.(EOS); !isEOS {
		e.msgsOut.Add(1)
	}
	if f, ok := msg.(stream.Frame); ok {
		e.framesOut.Add(1)
		e.tuplesOut.Add(int64(len(f.Tuples)))
		if f.Release != nil {
			f.Release()
		}
	}
}

// abandonMsg counts one undeliverable message and recycles its frame
// storage — an abandoned frame never reached the kernel (or its delivered
// prefix was already copied out), so the buffer is safe to reuse.
func (e *Edge) abandonMsg(msg stream.Message) {
	e.abandoned.Add(1)
	stream.ReleaseFrame(msg)
}

// sendOp is the send half: a stream.Operator that hands every incoming
// message to the edge's sender goroutine through a buffered channel, so
// graph processing and socket writes overlap. The sender coalesces a lane
// of pending messages into one gathered writev, retransmits across
// reconnects, and emits the wire EOS when Flush queues it. Messages that
// cannot be delivered after a terminal failure are counted and dropped —
// for the data plane this is at-least-once with possible loss on
// abandonment, for the droppable sync plane it is exactly the loop-edge
// contract.
type sendOp struct {
	e *Edge
	q chan stream.Message
	// done closes when the sender stops taking messages, before its final
	// drain of q; exited closes once that drain has counted the remainder.
	done, exited chan struct{}
}

// Operator returns the edge's send half and starts its sender goroutine.
// One graph node per edge.
func (e *Edge) Operator() stream.Operator {
	lane := e.opt.SendLane
	if lane <= 0 {
		lane = defaultLane
	}
	s := &sendOp{e: e, q: make(chan stream.Message, lane), done: make(chan struct{}), exited: make(chan struct{})}
	go e.sendLoop(s)
	return s
}

// Process implements stream.Operator: queue for the sender, or count the
// message abandoned if the sender has already stopped. A message queued
// just as the sender stopped may have missed its final drain, so once done
// is closed the producer drains the queue too: every message is counted
// sent or abandoned exactly once, by whichever side takes it off the queue.
func (s *sendOp) Process(_ int, msg stream.Message, _ stream.Emit) {
	select {
	case s.q <- msg:
	case <-s.done:
		s.e.abandonMsg(msg)
		return
	}
	select {
	case <-s.done:
		s.e.drainAbandon(s.q)
	default:
	}
}

// Flush implements stream.Operator: it queues the wire EOS and waits for
// the sender goroutine to finish delivering (or abandoning) everything
// before it, so the edge's counters are final when Flush returns.
func (s *sendOp) Flush(stream.Emit) {
	s.Process(0, EOS{}, nil)
	<-s.exited
}

// sendLoop is the edge's sender goroutine: it takes one message blocking,
// then whatever else is queued up to a lane, and hands that batch to the
// delivery state machine as one gathered writev. Nothing is held back
// waiting for a burst; the packer's Batch/FlushEvery is the only timed
// batching. It exits on EOS, terminal link failure, or edge close, closing
// done before it abandons what is left.
func (e *Edge) sendLoop(s *sendOp) {
	defer func() {
		close(s.done)
		e.drainAbandon(s.q)
		close(s.exited)
	}()
	snd := &edgeSender{e: e}
	buf := make([]stream.Message, 0, cap(s.q))
	for {
		// Pending clock echo first: it is one tiny message, it never waits
		// behind a saturated data queue, and answering promptly is what keeps
		// the peer's sampled RTT honest.
		select {
		case echo := <-e.echoCh:
			if !snd.deliver([]stream.Message{echo}) {
				return
			}
		default:
		}
		select {
		case m := <-s.q:
			buf = append(buf[:0], m)
		case echo := <-e.echoCh:
			if !snd.deliver([]stream.Message{echo}) {
				return
			}
			continue
		case <-e.closedCh:
			return
		}
		buf = takeQueued(s.q, buf)
		_, eos := buf[len(buf)-1].(EOS)
		if !snd.deliver(buf) || eos {
			return
		}
	}
}

// takeQueued appends what q holds, without blocking, until buf is a full
// lane.
func takeQueued(q chan stream.Message, buf []stream.Message) []stream.Message {
	for len(buf) < cap(buf) {
		select {
		case m := <-q:
			buf = append(buf, m)
		default:
			return buf
		}
	}
	return buf
}

// offerEcho parks an echo for the send loop, displacing any staler one
// still waiting: the channel holds one echo and each carries its own T1,
// so newest-wins drops nothing a min-RTT filter would have kept.
func (e *Edge) offerEcho(echo ClockEcho) {
	for {
		select {
		case e.echoCh <- echo:
			return
		default:
		}
		select {
		case <-e.echoCh:
		default:
		}
	}
}

// drainAbandon counts everything still queued on q as abandoned.
func (e *Edge) drainAbandon(q chan stream.Message) {
	for {
		select {
		case m := <-q:
			e.abandonMsg(m)
		default:
			return
		}
	}
}

// edgeSender is the sender goroutine's delivery state: the last generation
// known bad and the byte/write counters already folded into edge stats for
// the current connection's encoder.
type edgeSender struct {
	e     *Edge
	after int
	// sizes holds per-message assembled byte lengths for the current batch,
	// so a partial writev can be resolved to whole delivered messages.
	sizes []int
	// statGen / lastWrote / lastWrites track which encoder generation the
	// edge's cumulative byte counters are synced to.
	statGen   int
	lastWrote int64
	lastWrite int64
}

// syncWireStats folds the per-connection encoder's byte and write counters
// into the edge's cumulative stats and refreshes the amortization gauges.
func (s *edgeSender) syncWireStats(enc *Encoder, gen int) {
	if gen != s.statGen {
		s.statGen, s.lastWrote, s.lastWrite = gen, 0, 0
	}
	if d := enc.wrote - s.lastWrote; d > 0 {
		s.e.bytesOut.Add(d)
	}
	if d := enc.writes - s.lastWrite; d > 0 {
		s.e.writevs.Add(d)
	}
	s.lastWrote, s.lastWrite = enc.wrote, enc.writes
	if wi := s.e.wi; wi != nil {
		if w := s.e.writevs.Load(); w > 0 {
			wi.BytesPerWritev.Set(float64(s.e.bytesOut.Load()) / float64(w))
			wi.FramesPerWritev.Set(float64(s.e.framesOut.Load()) / float64(w))
		}
	}
}

// deliver pushes batch onto the link, reconnecting and retransmitting the
// undelivered remainder as needed; messages that fail to assemble are
// abandoned individually. It returns false once the edge is terminally
// down (the batch's remainder has then been abandoned).
func (s *edgeSender) deliver(batch []stream.Message) bool {
	e := s.e
	for {
		c, enc, _, gen, err := e.link(s.after)
		if err != nil {
			for _, m := range batch {
				e.abandonMsg(m)
			}
			return false
		}
		batch, err = s.deliverGathered(c, enc, batch)
		s.syncWireStats(enc, gen)
		if err == nil {
			return true
		}
		e.noteDown(gen, errors.Is(err, ErrInjectedReset))
		s.after = gen
	}
}

// deliverGathered assembles the batch into the encoder and flushes it with
// one gathered writev. On a transport error it uses the flushed byte count
// to mark the fully delivered prefix sent and returns the rest for
// retransmission on a fresh connection — the peer's decoder tears at the
// torn tail, so resending the first incomplete message from its start
// neither duplicates nor loses anything.
//
// Under chaos every assembled message rolls the edge's reset schedule
// first. The first roll that fires cuts the batch there: the messages ahead
// of it are flushed, the socket c is closed, and that message and the rest
// are returned with ErrInjectedReset for the same retransmission.
func (s *edgeSender) deliverGathered(c net.Conn, enc *Encoder, batch []stream.Message) ([]stream.Message, error) {
	e := s.e
	sizes := s.sizes[:0]
	kept := batch[:0]
	var unsent []stream.Message
	prev := 0
	for i, m := range batch {
		at := enc.mark()
		if err := enc.Append(m); err != nil {
			e.abandonMsg(m)
			continue
		}
		if e.chaos != nil && e.chaos.resetRoll() {
			enc.rewind(at)
			unsent = batch[i:]
			break
		}
		now := enc.pendingBytes()
		sizes = append(sizes, now-prev)
		prev = now
		kept = append(kept, m)
	}
	s.sizes = sizes
	if err := enc.Flush(); err != nil {
		flushed, done := enc.lastFlushed, 0
		for done < len(kept) && flushed >= sizes[done] {
			flushed -= sizes[done]
			done++
		}
		for _, m := range kept[:done] {
			e.markSent(m)
		}
		return slices.Concat(kept[done:], unsent), err
	}
	for _, m := range kept {
		e.markSent(m)
	}
	if unsent != nil {
		c.Close()
		return unsent, ErrInjectedReset
	}
	return nil, nil
}

// Source returns the edge's receive half: a stream.SourceFunc that decodes
// messages until the peer's EOS, reconnecting on link loss, and emits each
// one as it decodes it, on the source's own goroutine. The hop has one
// queue, the consuming node's; the socket's receive buffer is the only
// read-ahead. route maps each message to an output port (nil routes
// everything to port 0). The returned func closes the edge when ctx is
// cancelled, which unblocks a pending read.
func (e *Edge) Source(route func(stream.Message) int) stream.SourceFunc {
	return func(ctx context.Context, emit stream.Emit) error {
		stop := context.AfterFunc(ctx, e.Close)
		defer stop()
		end := e.recvLoop(route, emit)
		if err := ctx.Err(); err != nil {
			return err
		}
		return end
	}
}

// recvLoop is the receive half's body: it owns the decoder and the
// reconnect loop, counts what it decodes and emits it, until the peer's
// EOS, edge close (both nil) or a hard failure (its error).
func (e *Edge) recvLoop(route func(stream.Message) int, emit stream.Emit) error {
	after := 0
	for {
		_, _, dec, gen, err := e.link(after)
		if err != nil {
			if errors.Is(err, ErrEdgeClosed) {
				return nil
			}
			return err
		}
		msg, err := dec.Decode()
		if err != nil {
			e.mu.Lock()
			closed := e.closed
			e.mu.Unlock()
			if closed {
				return nil
			}
			e.noteDown(gen, false)
			after = gen
			continue
		}
		switch m := msg.(type) {
		case EOS:
			e.journal(obs.EvWireEOS, e.tuplesIn.Load(), 0)
			return nil
		case Hello:
			// Mid-stream hello: the peer restarted its session.
			e.mu.Lock()
			e.peer = m
			e.mu.Unlock()
			continue
		case ClockProbe:
			// Answered here, at the lowest layer that sees the probe: the
			// stamp is taken at decode and the reply never queues behind
			// data frames, which keeps the sampled RTT close to the true
			// path time and makes echo delivery independent of the send
			// queue's load.
			now := time.Now().UnixNano()
			e.offerEcho(ClockEcho{T1: m.T1, T2: now, T3: now})
			continue
		case stream.Frame:
			e.framesIn.Add(1)
			e.tuplesIn.Add(int64(len(m.Tuples)))
		}
		e.msgsIn.Add(1)
		port := 0
		if route != nil {
			port = route(msg)
		}
		emit(port, msg)
	}
}
