package stream

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// dropEveryOther is a minimal Tap: it discards odd-indexed messages and
// holds every 5th for release at drain time.
type dropEveryOther struct {
	n    int
	held []Message
}

func (d *dropEveryOther) Tap(msg Message) ([]Message, int) {
	i := d.n
	d.n++
	switch {
	case i%5 == 4:
		d.held = append(d.held, msg)
		return nil, 0
	case i%2 == 1:
		return nil, 1
	default:
		return []Message{msg}, 0
	}
}

func (d *dropEveryOther) Drain() ([]Message, int) {
	out := d.held
	d.held = nil
	return out, 0
}

func TestTapEdgeDropsAndDrains(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", CounterSource(100, func(seq int64) Message { return seq }))
	sink := &Collect{}
	snk := g.Add("sink", sink)
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	tap := &dropEveryOther{}
	if err := g.TapEdge(src, 0, snk, 0, tap); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Indices 0..99: 20 held (i%5==4), 40 dropped (odd, minus the held
	// odds: odd & i%5==4 happens at i=9,19,... → 10 of the 20 held are
	// odd) → dropped = 50-10 = 40, forwarded = 100-40 = 60.
	if got := len(sink.Items); got != 60 {
		t.Fatalf("sink received %d messages, want 60", got)
	}
	var srcM MetricsSnapshot
	for _, m := range g.Metrics() {
		if m.Name == "src" {
			srcM = m
		}
	}
	if srcM.Dropped != 40 {
		t.Fatalf("source Dropped = %d, want 40 (tap discards must be counted)", srcM.Dropped)
	}
	if srcM.Out != 60 {
		t.Fatalf("source Out = %d, want 60", srcM.Out)
	}
}

func TestTapEdgeErrors(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", CounterSource(1, func(seq int64) Message { return seq }))
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.TapEdge(src, 0, snk, 1, &dropEveryOther{}); err == nil {
		t.Fatal("tapping a nonexistent edge should fail")
	}
	if err := g.TapEdge(src, 0, snk, 0, nil); err == nil {
		t.Fatal("nil tap should fail")
	}
	if err := g.TapEdge(src, 0, snk, 0, &dropEveryOther{}); err != nil {
		t.Fatal(err)
	}
	if err := g.TapEdge(src, 0, snk, 0, &dropEveryOther{}); err == nil {
		t.Fatal("double-tapping an edge should fail")
	}
}

// panicAt panics on the n-th message it sees, once.
type panicAt struct {
	at    int
	seen  int
	fired bool
	out   int
}

func (p *panicAt) Process(_ int, msg Message, emit Emit) {
	p.seen++
	if !p.fired && p.seen == p.at {
		p.fired = true
		panic("injected")
	}
	p.out++
	emit(0, msg)
}

func (p *panicAt) Flush(Emit) {}

func TestOperatorPanicBecomesNodeFailure(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", CounterSource(50, func(seq int64) Message { return seq }))
	op := &panicAt{at: 10}
	mid := g.Add("mid", op)
	sink := &Collect{}
	flushed := false
	sink.OnFlush = func() { flushed = true }
	snk := g.Add("sink", sink)
	if err := g.Connect(src, 0, mid, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mid, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	var events atomic.Int64
	g.OnNodeFailure(func(f NodeFailure) { events.Add(1) })
	if err := g.Run(context.Background()); err != nil {
		t.Fatalf("panic must not surface as a Run error, got %v", err)
	}
	fails := g.Failures()
	if len(fails) != 1 || events.Load() != 1 {
		t.Fatalf("want exactly one failure event, got %v (callback %d)", fails, events.Load())
	}
	if fails[0].Name != "mid" || fails[0].Err == nil ||
		!strings.Contains(fails[0].Err.Error(), "panicked") {
		t.Fatalf("unexpected failure record: %+v", fails[0])
	}
	// 9 messages went through before the panic; the rest were dropped by
	// the failed node, and the sink still flushed (EOS propagated).
	if len(sink.Items) != 9 {
		t.Fatalf("sink got %d messages, want 9", len(sink.Items))
	}
	if !flushed {
		t.Fatal("sink never flushed: failed node must still propagate EOS")
	}
	var midM MetricsSnapshot
	for _, m := range g.Metrics() {
		if m.Name == "mid" {
			midM = m
		}
	}
	if midM.Dropped != 40 {
		t.Fatalf("failed node Dropped = %d, want 40", midM.Dropped)
	}
}

func TestFailedNodeReleasesDroppedFrames(t *testing.T) {
	// Frames a failed node drops never reach a consumer, so the runtime
	// must release each of them exactly once in its place.
	var releases atomic.Int64
	g := NewGraph()
	src := g.AddSource("src", CounterSource(50, func(seq int64) Message {
		return Frame{Seq: seq, Tuples: []Tuple{{Seq: seq}}, Release: func() { releases.Add(1) }}
	}))
	mid := g.Add("mid", &panicAt{at: 10})
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, mid, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mid, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var midM MetricsSnapshot
	for _, m := range g.Metrics() {
		if m.Name == "mid" {
			midM = m
		}
	}
	if midM.Dropped != 40 || releases.Load() != 40 {
		t.Fatalf("Dropped = %d, releases = %d, want 40 and 40", midM.Dropped, releases.Load())
	}
}

func TestReviveRestoresFailedNode(t *testing.T) {
	g := NewGraph()
	// An endless ticker-style source keeps the graph alive until cancel;
	// a gate releases the second half of the stream only after revive.
	gate := make(chan struct{})
	revived := make(chan struct{})
	src := g.AddSource("src", func(ctx context.Context, emit Emit) error {
		for i := int64(0); i < 10; i++ {
			emit(0, i)
		}
		<-gate
		for i := int64(10); i < 20; i++ {
			emit(0, i)
		}
		return nil
	})
	op := &panicAt{at: 5}
	mid := g.Add("mid", op)
	sink := &Collect{}
	snk := g.Add("sink", sink)
	if err := g.Connect(src, 0, mid, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mid, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	restored := false
	g.OnNodeFailure(func(f NodeFailure) {
		go func() {
			if err := g.Revive(f.Node, func() { restored = true }); err != nil {
				t.Errorf("revive: %v", err)
			}
			close(revived)
		}()
	})
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case <-revived:
	case <-time.After(5 * time.Second):
		t.Fatal("revive never happened")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("revive fn did not run")
	}
	// 4 messages pre-panic; message 5 lost to the panic; 6..9 raced the
	// revive (may drop); 10..19 arrive strictly after revive.
	if len(sink.Items) < 14 {
		t.Fatalf("sink got %d messages, want ≥ 14 (post-revive traffic must flow)", len(sink.Items))
	}
	last := sink.Items[len(sink.Items)-1].(int64)
	if last != 19 {
		t.Fatalf("last message %v, want 19", last)
	}
}

func TestReviveWhenNotRunning(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", CounterSource(1, func(seq int64) Message { return seq }))
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Revive(snk, nil); err == nil {
		t.Fatal("revive before Run should fail")
	}
}
