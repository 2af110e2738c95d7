package wire

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/ingest"
	"streampca/internal/obs"
	"streampca/internal/stream"
)

// fastRetry keeps reconnect loops snappy in tests.
var fastRetry = ingest.RetryPolicy{MaxAttempts: 20, Base: time.Millisecond, Cap: 20 * time.Millisecond, Factor: 2, Jitter: 0.2}

// runSource runs an edge's receive half in a goroutine, collecting every
// emitted message; the returned wait func joins it and reports the error.
func runSource(ctx context.Context, e *Edge) (func() ([]stream.Message, error), *int64) {
	var (
		mu   sync.Mutex
		got  []stream.Message
		err  error
		wg   sync.WaitGroup
		tups int64
	)
	src := e.Source(nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		err = src(ctx, func(_ int, msg stream.Message) {
			mu.Lock()
			got = append(got, msg)
			mu.Unlock()
			if f, ok := msg.(stream.Frame); ok {
				atomic.AddInt64(&tups, int64(len(f.Tuples)))
				if f.Release != nil {
					f.Release()
				}
			}
		})
	}()
	return func() ([]stream.Message, error) {
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return got, err
	}, &tups
}

func TestEdgeLoopback(t *testing.T) {
	set := obs.NewSet()
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{
		Name: "accept", Hello: Hello{Engine: 2, Epoch: 1}, Dim: 3, Batch: 4, Obs: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker := ln.Edge()
	defer worker.Close()
	dial := DialEdge(ln.Addr().String(), EdgeOptions{
		Name: "dial", Hello: Hello{Engine: -1, Dim: 3, Batch: 4, Epoch: 1}, Retry: fastRetry, Obs: set,
	})
	defer dial.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wait, _ := runSource(ctx, worker)

	op := dial.Operator()
	op.Process(0, contiguousFrame(0, 4, 3), nil)
	op.Process(0, stream.Control{Round: 1, Sender: 0, Receivers: []int{2}}, nil)
	op.Process(0, stream.Snapshot{Round: 1, From: 0, To: 2, State: testEigensystem(3, 2)}, nil)
	op.Process(0, stream.Barrier{Epoch: 1}, nil)
	op.Flush(nil)

	got, srcErr := wait()
	if srcErr != nil {
		t.Fatalf("source: %v", srcErr)
	}
	if len(got) != 4 {
		t.Fatalf("received %d messages, want 4", len(got))
	}
	if _, ok := got[0].(stream.Frame); !ok {
		t.Fatalf("message 0 is %T", got[0])
	}
	if c, ok := got[1].(stream.Control); !ok || c.Round != 1 {
		t.Fatalf("message 1 is %#v", got[1])
	}
	if _, ok := got[2].(stream.Snapshot); !ok {
		t.Fatalf("message 2 is %T", got[2])
	}
	if b, ok := got[3].(stream.Barrier); !ok || b.Epoch != 1 {
		t.Fatalf("message 3 is %#v", got[3])
	}

	// Peer identity flows both ways.
	peer, err := dial.Peer(ctx)
	if err != nil || peer.Engine != 2 {
		t.Fatalf("dial peer = %+v, %v; want engine 2", peer, err)
	}
	wp, err := worker.Peer(ctx)
	if err != nil || wp.Engine != -1 {
		t.Fatalf("worker peer = %+v, %v; want engine -1", wp, err)
	}

	ds, ws := dial.Stats(), worker.Stats()
	if ds.TuplesSent != 4 || ws.TuplesRecv != 4 {
		t.Fatalf("tuples sent/recv = %d/%d, want 4/4", ds.TuplesSent, ws.TuplesRecv)
	}
	if ds.MsgsSent != 4 || ws.MsgsRecv != 4 {
		t.Fatalf("msgs sent/recv = %d/%d, want 4/4", ds.MsgsSent, ws.MsgsRecv)
	}
	if ds.Gen != 1 || ds.Reconnects != 0 {
		t.Fatalf("dial gen/reconnects = %d/%d", ds.Gen, ds.Reconnects)
	}
	if ws.PeerEpoch != 1 {
		t.Fatalf("worker peer epoch = %d", ws.PeerEpoch)
	}

	// Both connects and the EOS left journal evidence.
	var connects, eoses int
	for _, ev := range set.Journal().Events(0) {
		switch ev.Kind {
		case obs.EvWireConnect:
			connects++
		case obs.EvWireEOS:
			eoses++
		}
	}
	if connects != 2 || eoses != 1 {
		t.Fatalf("journal: %d connects, %d eos; want 2, 1", connects, eoses)
	}
}

func TestEdgeSurvivesInjectedResets(t *testing.T) {
	var ups, downs atomic.Int64
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{
		Name: "accept", Hello: Hello{Engine: 1, Epoch: 1}, Dim: 3, Batch: 4, Retry: fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker := ln.Edge()
	defer worker.Close()
	dial := DialEdge(ln.Addr().String(), EdgeOptions{
		Name:  "dial",
		Hello: Hello{Engine: -1, Epoch: 1},
		Retry: fastRetry,
		Chaos: &ConnPlan{Reset: 0.15, Seed: 7},
		OnState: func(up bool) {
			if up {
				ups.Add(1)
			} else {
				downs.Add(1)
			}
		},
	})
	defer dial.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait, tups := runSource(ctx, worker)

	const frames, batch = 120, 4
	op := dial.Operator()
	for i := 0; i < frames; i++ {
		op.Process(0, contiguousFrame(int64(i*batch), batch, 3), nil)
	}
	op.Flush(nil)

	_, srcErr := wait()
	if srcErr != nil {
		t.Fatalf("source: %v", srcErr)
	}
	ds := dial.Stats()
	if ds.Resets == 0 {
		t.Fatal("chaos plan with Reset=0.15 over 120 writes injected no resets")
	}
	if ds.Reconnects == 0 || ds.Drops == 0 {
		t.Fatalf("reconnects=%d drops=%d, want both > 0", ds.Reconnects, ds.Drops)
	}
	if ds.Gen != 1+int(ds.Reconnects) {
		t.Fatalf("gen=%d with %d reconnects", ds.Gen, ds.Reconnects)
	}
	// At-least-once on the write side, with loss only for bytes already
	// buffered on a torn connection: never duplication (resets fire before
	// the write), so the receiver can't see more tuples than were sent.
	recv := atomic.LoadInt64(tups)
	if recv == 0 {
		t.Fatal("no tuples survived the chaos run")
	}
	if recv > ds.TuplesSent {
		t.Fatalf("received %d tuples but only %d sent", recv, ds.TuplesSent)
	}
	if ds.TuplesSent != frames*batch {
		t.Fatalf("sent %d tuples, want %d", ds.TuplesSent, frames*batch)
	}
	if ups.Load() == 0 || downs.Load() == 0 {
		t.Fatalf("OnState saw ups=%d downs=%d, want both > 0", ups.Load(), downs.Load())
	}
}

// TestEdgeResetRollsPerMessageInsideBatch pins the per-message reset
// schedule of the gathered sender: every message rolls once, in send order,
// whatever batch it was coalesced into. The seed is chosen so the schedule
// fires exactly once, at frame j in the middle of a coalesced burst: frames
// 0..j-1 must reach the peer on the first connection, and frame j onward
// after the reconnect, each exactly once.
func TestEdgeResetRollsPerMessageInsideBatch(t *testing.T) {
	const frames, batch, reset = 8, 4, 0.1
	// Rolls 0..frames+1 cover the first pass up to the firing frame j and the
	// retransmitted frames j..frames-1 plus EOS.
	var plan ConnPlan
	j := -1
	for seed := uint64(1); j < 0; seed++ {
		probe := newConnChaos(ConnPlan{Reset: reset, Seed: seed})
		fired := []int{}
		for r := 0; r < frames+2; r++ {
			if probe.resetRoll() {
				fired = append(fired, r)
			}
		}
		if len(fired) == 1 && fired[0] >= 2 && fired[0] <= frames-2 {
			plan, j = ConnPlan{Reset: reset, Seed: seed}, fired[0]
		}
	}

	var atDown atomic.Int64
	atDown.Store(-1)
	var worker *Edge
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{
		Name: "accept", Hello: Hello{Engine: 1, Epoch: 1}, Dim: 3, Batch: batch, Retry: fastRetry,
		// The receive loop decodes the first connection to its end before it
		// notes the link down, so this reads what that connection carried.
		OnState: func(up bool) {
			if !up {
				atDown.CompareAndSwap(-1, worker.Stats().FramesRecv)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker = ln.Edge()
	defer worker.Close()
	dial := DialEdge(ln.Addr().String(), EdgeOptions{
		Name:  "dial",
		Hello: Hello{Engine: -1, Dim: 3, Batch: batch, Epoch: 1},
		Retry: fastRetry,
		Chaos: &plan,
	})
	defer dial.Close()

	// The burst is queued before the accept side starts receiving: the
	// sender blocks in the handshake with what it took first, and the
	// frames behind wait in the send lane and leave as one gathered writev.
	op := dial.Operator()
	for i := 0; i < frames; i++ {
		op.Process(0, contiguousFrame(int64(i*batch), batch, 3), nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait, _ := runSource(ctx, worker)
	op.Flush(nil)
	got, err := wait()
	if err != nil {
		t.Fatalf("source: %v", err)
	}

	var seqs []int64
	for _, m := range got {
		if f, ok := m.(stream.Frame); ok {
			seqs = append(seqs, f.Seq)
		}
	}
	if len(seqs) != frames {
		t.Fatalf("peer received frames %v, want %d frames each exactly once", seqs, frames)
	}
	for i, s := range seqs {
		if s != int64(i*batch) {
			t.Fatalf("peer received frames %v, want seq %d at %d", seqs, i*batch, i)
		}
	}
	if n := atDown.Load(); n != int64(j) {
		t.Fatalf("first connection carried %d frames, want the %d ahead of the firing roll", n, j)
	}
	ds, ws := dial.Stats(), worker.Stats()
	if ds.FramesSent != frames || ws.FramesRecv != frames {
		t.Fatalf("frames sent/recv = %d/%d, want %d/%d", ds.FramesSent, ws.FramesRecv, frames, frames)
	}
	if ds.Resets != 1 || ds.Reconnects != 1 || ds.Abandoned != 0 {
		t.Fatalf("resets/reconnects/abandoned = %d/%d/%d, want 1/1/0", ds.Resets, ds.Reconnects, ds.Abandoned)
	}
}

func TestEdgeDialExhaustionDropsNotWedges(t *testing.T) {
	// Nothing listens here; the dial side must give up after MaxAttempts and
	// then drop (count) every message instead of blocking the graph.
	dial := DialEdge("127.0.0.1:1", EdgeOptions{
		Name:        "dial",
		Retry:       ingest.RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Cap: 2 * time.Millisecond, Factor: 2},
		DialTimeout: 200 * time.Millisecond,
	})
	defer dial.Close()
	op := dial.Operator()
	done := make(chan struct{})
	go func() {
		defer close(done)
		op.Process(0, frameOfOne(1, 1), nil)
		op.Process(0, frameOfOne(2, 2), nil)
		op.Flush(nil)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("send wedged on an unreachable peer")
	}
	if got := dial.Stats().Abandoned; got != 3 {
		t.Fatalf("abandoned %d messages, want 3 (2 frames + EOS)", got)
	}
}

func TestEdgePartitionWindowDelaysDial(t *testing.T) {
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{Name: "accept", Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker := ln.Edge()
	defer worker.Close()
	dial := DialEdge(ln.Addr().String(), EdgeOptions{
		Name:  "dial",
		Retry: ingest.RetryPolicy{MaxAttempts: 50, Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond, Factor: 2},
		Chaos: &ConnPlan{Partition: 1, PartitionFor: 30 * time.Millisecond, Seed: 11},
	})
	defer dial.Close()
	// Partition=1 opens a window on the first roll, but an elapsed window
	// must not be rolled again before the probability check — each retry gets
	// a fresh roll, and with finite windows the dial eventually... does not:
	// probability 1 re-partitions forever. The dial must exhaust and drop.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait, _ := runSource(ctx, worker)
	op := dial.Operator()
	op.Process(0, frameOfOne(1, 1), nil)
	// The sender goroutine abandons the frame once the dial loop exhausts
	// its attempts against the never-closing partition window.
	deadline := time.Now().Add(25 * time.Second)
	for dial.Stats().Abandoned != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned %d, want 1", dial.Stats().Abandoned)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dial.Stats().Partitions == 0 {
		t.Fatal("no partition window ever opened")
	}
	worker.Close()
	ln.Close()
	cancel()
	if _, err := wait(); err != nil && err != context.Canceled {
		t.Fatalf("source: %v", err)
	}
}

func TestEdgeCloseUnblocksAcceptSide(t *testing.T) {
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{Name: "accept"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker := ln.Edge()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait, _ := runSource(ctx, worker)
	// No dialer ever shows up; cancelling the context must end the source
	// cleanly even though the edge is parked inside Accept.
	time.Sleep(20 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		wait()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accept-side source did not unblock on context cancel")
	}
}

// failNthWriteConn is the mid-writev test seam: it forwards writes to the
// underlying conn but fails write number failAt (counted across every
// wrapped conn via the shared counter), closing the conn so the peer sees
// a genuine tear. Because it is not a *net.TCPConn, net.Buffers falls back
// to sequential per-buffer writes — so the failure lands in the middle of
// a coalesced batch, after some of its buffers already reached the peer.
type failNthWriteConn struct {
	net.Conn
	calls  *atomic.Int64
	failAt int64
}

func (c *failNthWriteConn) Write(b []byte) (int, error) {
	if c.calls.Add(1) == c.failAt {
		c.Conn.Close()
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: errors.New("injected mid-writev tear")}
	}
	return c.Conn.Write(b)
}

// TestEdgeCoalescedResetMidWritevStatsExact kills a connection in the
// middle of a coalesced gathered write and checks the edge's cumulative
// tuple-weighted counters stay exact across the reconnect: every frame is
// counted sent exactly once (delivered-prefix resolution plus retransmit
// of the torn remainder), and the peer receives every tuple exactly once.
func TestEdgeCoalescedResetMidWritevStatsExact(t *testing.T) {
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{Name: "accept", Dim: 3, Batch: 4, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker := ln.Edge()
	defer worker.Close()

	dial := DialEdge(ln.Addr().String(), EdgeOptions{
		Name:  "dial",
		Hello: Hello{Engine: 0, Dim: 3, Batch: 4, Epoch: 1},
		Retry: fastRetry,
	})
	defer dial.Close()
	var writes atomic.Int64
	// A batch of 6 zero-copy frames flushes as alternating prefix/payload
	// buffers; failing the 5th write tears the batch partway through, with
	// whole messages already delivered ahead of the tear.
	dial.testWrapConn = func(c net.Conn) net.Conn {
		return &failNthWriteConn{Conn: c, calls: &writes, failAt: 5}
	}

	// The frames are queued before the accept side starts receiving, so
	// the ones behind what the sender took into the handshake coalesce into
	// one gathered flush.
	const frames, batch = 6, 4
	op := dial.Operator()
	for i := 0; i < frames; i++ {
		f := contiguousFrame(int64(i*batch), batch, 3)
		op.Process(0, f, nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait, tups := runSource(ctx, worker)
	op.Flush(nil)

	got, err := wait()
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	st := dial.Stats()
	if st.Abandoned != 0 {
		t.Fatalf("abandoned %d messages across the mid-writev tear, want 0", st.Abandoned)
	}
	if st.FramesSent != frames || st.TuplesSent != frames*batch {
		t.Fatalf("sent %d frames / %d tuples, want %d / %d — counters tore with the writev",
			st.FramesSent, st.TuplesSent, frames, frames*batch)
	}
	if st.Drops == 0 || st.Reconnects == 0 {
		t.Fatalf("tear invisible in stats: drops=%d reconnects=%d", st.Drops, st.Reconnects)
	}
	if *tups != frames*batch {
		t.Fatalf("peer received %d tuples, want exactly %d (no loss, no duplication)", *tups, frames*batch)
	}
	recvFrames := 0
	for _, m := range got {
		if _, ok := m.(stream.Frame); ok {
			recvFrames++
		}
	}
	if recvFrames != frames {
		t.Fatalf("peer received %d frames, want %d", recvFrames, frames)
	}
	if st.BytesSent == 0 || st.Writevs == 0 {
		t.Fatalf("wire accounting empty: bytes=%d writevs=%d", st.BytesSent, st.Writevs)
	}
	ws := worker.Stats()
	if ws.TuplesRecv != frames*batch || ws.FramesRecv != frames {
		t.Fatalf("receive counters %d tuples / %d frames, want %d / %d",
			ws.TuplesRecv, ws.FramesRecv, frames*batch, frames)
	}
}

// TestEdgeAnswersClockProbeUnderLoad pins the transport-level clock echo:
// a probe sent up an edge must come back as an echo even while the
// answering side's sender is busy with data frames — the reply rides the
// sender's priority slot, not a droppable graph loop — and the probe
// itself must never surface to the answering side's consumer.
func TestEdgeAnswersClockProbeUnderLoad(t *testing.T) {
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{
		Name: "coord", Hello: Hello{Engine: 2, Epoch: 1}, Dim: 3, Batch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := ln.Edge()
	defer coord.Close()
	dial := DialEdge(ln.Addr().String(), EdgeOptions{
		Name: "dial", Hello: Hello{Engine: -1, Dim: 3, Batch: 4, Epoch: 1}, Retry: fastRetry,
	})
	defer dial.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coordWait, _ := runSource(ctx, coord)

	echoed := make(chan ClockEcho, 1)
	var dialWG sync.WaitGroup
	dialWG.Add(1)
	go func() {
		defer dialWG.Done()
		_ = dial.Source(nil)(ctx, func(_ int, msg stream.Message) {
			if e, ok := msg.(ClockEcho); ok {
				select {
				case echoed <- e:
				default:
				}
			}
			stream.ReleaseFrame(msg)
		})
	}()

	dialOp := dial.Operator()
	coordOp := coord.Operator()
	dialOp.Process(0, ClockProbe{Node: 0, T1: 42}, nil)
	// Saturate the answering side's data plane while the echo is pending.
	for i := 0; i < 200; i++ {
		coordOp.Process(0, contiguousFrame(int64(i*4), 4, 3), nil)
	}

	var echo ClockEcho
	select {
	case echo = <-echoed:
	case <-time.After(5 * time.Second):
		t.Fatal("no clock echo within 5s despite data-plane load")
	}
	if echo.T1 != 42 {
		t.Fatalf("echo T1 = %d, want the probe's 42", echo.T1)
	}
	if echo.T2 == 0 || echo.T2 != echo.T3 {
		t.Fatalf("echo stamps T2=%d T3=%d, want equal non-zero", echo.T2, echo.T3)
	}

	coordOp.Flush(nil)
	dialOp.Flush(nil)
	got, srcErr := coordWait()
	if srcErr != nil {
		t.Fatalf("coordinator source: %v", srcErr)
	}
	for _, m := range got {
		if _, ok := m.(ClockProbe); ok {
			t.Fatal("probe leaked past the transport layer to the consumer")
		}
	}
	dial.Close()
	dialWG.Wait()
}

// TestEdgeSendAccountsEveryMessageOnClose closes the send side at a seeded
// random point while one goroutine is still queueing frames and then
// flushing. Every frame must end up counted exactly once, sent or
// abandoned, and the EOS at most once (abandoned when the close beat it):
// a message queued just as the sender stopped may not be stranded.
func TestEdgeSendAccountsEveryMessageOnClose(t *testing.T) {
	const frames = 64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		closeAt := rng.Intn(frames + 2)
		ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{Name: "accept", Dim: 3, Batch: 4, Retry: fastRetry})
		if err != nil {
			t.Fatal(err)
		}
		worker := ln.Edge()
		dial := DialEdge(ln.Addr().String(), EdgeOptions{
			Name: "dial", Hello: Hello{Engine: 0, Dim: 3, Batch: 4, Epoch: 1}, Retry: fastRetry, SendLane: 4,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		wait, _ := runSource(ctx, worker)

		fire := make(chan struct{})
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			<-fire
			dial.Close()
		}()
		op := dial.Operator()
		for i := 0; i < frames; i++ {
			if i == closeAt {
				close(fire)
			}
			op.Process(0, contiguousFrame(int64(i*4), 4, 3), nil)
		}
		if closeAt == frames {
			close(fire)
		}
		op.Flush(nil)
		st := dial.Stats()
		if extra := st.FramesSent + st.Abandoned - frames; extra != 0 && extra != 1 {
			t.Fatalf("seed %d (close at %d): sent %d + abandoned %d frames/EOS for %d frames",
				seed, closeAt, st.FramesSent, st.Abandoned, frames)
		}
		if closeAt > frames {
			close(fire)
		}
		<-closed
		cancel()
		wait()
		worker.Close()
		ln.Close()
	}
}

// TestEdgeSourceCancelStopsReceiver cancels a source while its peer is still
// streaming frames: the source must return the context's error promptly and
// leave no goroutine behind decoding a stream nobody reads.
func TestEdgeSourceCancelStopsReceiver(t *testing.T) {
	ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{Name: "accept", Dim: 3, Batch: 4, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	worker := ln.Edge()
	defer worker.Close()
	dial := DialEdge(ln.Addr().String(), EdgeOptions{
		Name: "dial", Hello: Hello{Engine: 0, Dim: 3, Batch: 4, Epoch: 1}, Retry: fastRetry,
	})
	defer dial.Close()

	stop := make(chan struct{})
	defer close(stop)
	op := dial.Operator()
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op.Process(0, contiguousFrame(int64(i*4), 4, 3), nil)
		}
	}()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- worker.Source(nil)(ctx, func(_ int, msg stream.Message) { stream.ReleaseFrame(msg) })
	}()
	for deadline := time.Now().Add(10 * time.Second); worker.Stats().FramesRecv < 32; {
		if time.Now().After(deadline) {
			t.Fatalf("peer delivered only %d frames", worker.Stats().FramesRecv)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("source returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("source still running 1s after its context was cancelled")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the source returned, want the %d from before it started",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
