package stream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// intSource emits 0..n-1 as int64 messages.
func intSource(n int64) SourceFunc {
	return CounterSource(n, func(seq int64) Message { return seq })
}

func TestLinearPipelineDeliversAllInOrder(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(1000))
	double := g.Add("double", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) {
			emit(0, msg.(int64)*2)
		},
	})
	sink := &Collect{}
	snk := g.Add("sink", sink)
	if err := g.Connect(src, 0, double, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(double, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.Items) != 1000 {
		t.Fatalf("got %d items", len(sink.Items))
	}
	for i, m := range sink.Items {
		if m.(int64) != int64(2*i) {
			t.Fatalf("item %d = %v", i, m)
		}
	}
}

func TestSplitRandomRoughlyBalances(t *testing.T) {
	g := NewGraph()
	const n = 9000
	src := g.AddSource("src", intSource(n))
	sp := g.Add("split", &Split{N: 3, Seed: 42})
	sinks := make([]*Collect, 3)
	if err := g.Connect(src, 0, sp, 0); err != nil {
		t.Fatal(err)
	}
	for i := range sinks {
		sinks[i] = &Collect{}
		id := g.Add(fmt.Sprintf("sink%d", i), sinks[i])
		if err := g.Connect(sp, i, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range sinks {
		total += len(s.Items)
		if len(s.Items) < n/3-300 || len(s.Items) > n/3+300 {
			t.Fatalf("sink %d got %d items (unbalanced)", i, len(s.Items))
		}
	}
	if total != n {
		t.Fatalf("lost tuples: %d/%d", total, n)
	}
}

func TestFanOutDuplicates(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(50))
	a, b := &Collect{}, &Collect{}
	na := g.Add("a", a)
	nb := g.Add("b", b)
	// Same output port wired to two consumers → both get every message.
	if err := g.Connect(src, 0, na, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, 0, nb, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 50 || len(b.Items) != 50 {
		t.Fatalf("fan-out lost messages: %d, %d", len(a.Items), len(b.Items))
	}
}

func TestMultiInputQuorumFlush(t *testing.T) {
	g := NewGraph()
	s1 := g.AddSource("s1", intSource(10))
	s2 := g.AddSource("s2", intSource(20))
	var flushed atomic.Bool
	var count atomic.Int64
	merge := g.Add("merge", &FuncOperator{
		OnMessage: func(_ int, _ Message, _ Emit) { count.Add(1) },
		OnFlush:   func(Emit) { flushed.Store(true) },
	})
	if err := g.Connect(s1, 0, merge, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(s2, 0, merge, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 30 {
		t.Fatalf("merge saw %d messages", count.Load())
	}
	if !flushed.Load() {
		t.Fatal("merge did not flush after both inputs ended")
	}
}

func TestCycleRequiresConnectLoop(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", &FuncOperator{})
	b := g.Add("b", &FuncOperator{})
	if err := g.Connect(a, 0, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(b, 0, a, 0); err != nil {
		t.Fatal(err)
	}
	err := g.Run(context.Background())
	if err == nil {
		t.Fatal("undeclared cycle should fail validation")
	}
}

func TestDeclaredLoopRunsAndTerminates(t *testing.T) {
	// src → a → sink with a loop edge a → a (self feedback). The loop must
	// neither deadlock nor prevent termination.
	g := NewGraph()
	src := g.AddSource("src", intSource(200))
	var loopbacks atomic.Int64
	var aID NodeID
	aID = g.Add("a", &FuncOperator{
		OnMessage: func(port int, msg Message, emit Emit) {
			if port == 1 {
				loopbacks.Add(1)
				return
			}
			emit(0, msg)
			emit(1, msg) // feedback
		},
	})
	sink := &Collect{}
	snk := g.Add("sink", sink)
	if err := g.Connect(src, 0, aID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(aID, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectLoop(aID, 1, aID, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cyclic graph did not terminate")
	}
	if len(sink.Items) != 200 {
		t.Fatalf("sink got %d", len(sink.Items))
	}
	if loopbacks.Load() == 0 {
		t.Fatal("loop edge delivered nothing")
	}
}

func TestTwoNodeLoopFabric(t *testing.T) {
	// Two engines exchanging loop messages while consuming finite data:
	// must terminate naturally once both data inputs end.
	g := NewGraph()
	s1 := g.AddSource("s1", intSource(100))
	s2 := g.AddSource("s2", intSource(100))
	mkEngine := func() Operator {
		return &FuncOperator{
			OnMessage: func(port int, msg Message, emit Emit) {
				if port == 0 { // data
					emit(1, msg) // share with peer over loop
				}
			},
		}
	}
	e1 := g.Add("e1", mkEngine())
	e2 := g.Add("e2", mkEngine())
	if err := g.Connect(s1, 0, e1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(s2, 0, e2, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectLoop(e1, 1, e2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectLoop(e2, 1, e1, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loop fabric did not terminate")
	}
}

func TestCancellationStopsEndlessPipeline(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(-1)) // endless
	sink := &Collect{}
	var n atomic.Int64
	snk := g.Add("sink", &FuncOperator{
		OnMessage: func(_ int, _ Message, _ Emit) { n.Add(1) },
	})
	_ = sink
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	for n.Load() < 1000 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not stop the run")
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	src := g.AddSource("src", func(ctx context.Context, emit Emit) error {
		emit(0, int64(1))
		return boom
	})
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	err := g.Run(context.Background())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
}

func TestConnectValidation(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(1))
	op := g.Add("op", &FuncOperator{})
	if err := g.Connect(op, 0, src, 0); err == nil {
		t.Fatal("connecting into a source should fail")
	}
	if err := g.Connect(NodeID(99), 0, op, 0); err == nil {
		t.Fatal("unknown node should fail")
	}
	if err := g.Connect(src, -1, op, 0); err == nil {
		t.Fatal("negative port should fail")
	}
}

func TestRunTwiceFails(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(1))
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestEmitToUnconnectedPortIsNoop(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(5))
	op := g.Add("op", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) {
			emit(3, msg) // port 3 unconnected
			emit(0, msg)
		},
	})
	sink := &Collect{}
	snk := g.Add("sink", sink)
	if err := g.Connect(src, 0, op, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(op, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.Items) != 5 {
		t.Fatalf("sink got %d", len(sink.Items))
	}
}

func TestZeroInputOperatorFlushes(t *testing.T) {
	g := NewGraph()
	var flushed atomic.Bool
	lonely := g.Add("lonely", &FuncOperator{
		OnFlush: func(emit Emit) { flushed.Store(true); emit(0, int64(7)) },
	})
	sink := &Collect{}
	snk := g.Add("sink", sink)
	if err := g.Connect(lonely, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !flushed.Load() || len(sink.Items) != 1 {
		t.Fatalf("lonely node mishandled: flushed=%v items=%d", flushed.Load(), len(sink.Items))
	}
}

func TestMetricsCounts(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(100))
	op := g.Add("op", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) { emit(0, msg) },
	})
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, op, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(op, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ms := g.Metrics()
	byName := map[string]MetricsSnapshot{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if byName["op"].In != 100 || byName["op"].Out != 100 {
		t.Fatalf("op metrics: %+v", byName["op"])
	}
	if byName["src"].Out != 100 {
		t.Fatalf("src metrics: %+v", byName["src"])
	}
	if byName["sink"].In != 100 {
		t.Fatalf("sink metrics: %+v", byName["sink"])
	}
}

func TestTickerEmitsUntilCancel(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("ticker", Ticker(time.Millisecond))
	var n atomic.Int64
	snk := g.Add("sink", &FuncOperator{
		OnMessage: func(_ int, _ Message, _ Emit) { n.Add(1) },
	})
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	for n.Load() < 5 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if n.Load() < 5 {
		t.Fatal("ticker emitted too little")
	}
}

func TestBackpressureDoesNotLoseData(t *testing.T) {
	// Tiny buffers with a slow consumer: blocking data edges must deliver
	// every tuple.
	g := NewGraph()
	src := g.AddSource("src", intSource(500))
	slow := &Collect{}
	snk := g.Add("sink", &FuncOperator{
		OnMessage: func(_ int, msg Message, _ Emit) {
			if msg.(int64)%100 == 0 {
				time.Sleep(time.Millisecond)
			}
			slow.Items = append(slow.Items, msg)
		},
	}, WithBuffer(1))
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(slow.Items) != 500 {
		t.Fatalf("lost data under backpressure: %d/500", len(slow.Items))
	}
}

func BenchmarkPipelineHop(b *testing.B) {
	// Measures per-message cost of one channel hop through an operator.
	g := NewGraph()
	src := g.AddSource("src", intSource(int64(b.N)))
	op := g.Add("op", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) { emit(0, msg) },
	})
	var n int64
	snk := g.Add("sink", &FuncOperator{
		OnMessage: func(_ int, _ Message, _ Emit) { n++ },
	})
	if err := g.Connect(src, 0, op, 0); err != nil {
		b.Fatal(err)
	}
	if err := g.Connect(op, 0, snk, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := g.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	if n != int64(b.N) {
		b.Fatalf("lost messages: %d/%d", n, b.N)
	}
}

func TestFusedChainFlushOrder(t *testing.T) {
	// A chain of three operators: EOS must cascade A→B→C in order, each
	// flushing exactly once, with flush-time emissions delivered.
	g := NewGraph()
	src := g.AddSource("src", intSource(10))
	var order []string
	mk := func(name string) NodeID {
		return g.Add(name, &FuncOperator{
			OnMessage: func(_ int, msg Message, emit Emit) { emit(0, msg) },
			OnFlush: func(emit Emit) {
				order = append(order, name)
				emit(0, name) // flush emission must still flow downstream
			},
		})
	}
	a, bn, c := mk("a"), mk("b"), mk("c")
	sink := &Collect{}
	snk := g.Add("sink", sink)
	for _, e := range [][2]NodeID{{src, a}, {a, bn}, {bn, c}, {c, snk}} {
		if err := g.Connect(e[0], 0, e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("flush order = %v", order)
	}
	// 10 data + flush markers from a, b, c.
	if len(sink.Items) != 13 {
		t.Fatalf("sink got %d items", len(sink.Items))
	}
}

func TestLoopEdgeDropsWhenSaturated(t *testing.T) {
	// A tiny-buffer consumer that never drains loop traffic: the sender's
	// Dropped metric must grow instead of the graph deadlocking.
	g := NewGraph()
	src := g.AddSource("src", intSource(2000))
	blaster := g.Add("blaster", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) {
			emit(1, msg) // loop traffic
			emit(0, msg)
		},
	})
	slow := g.Add("slow", &FuncOperator{
		OnMessage: func(port int, _ Message, _ Emit) {
			if port == 1 {
				time.Sleep(time.Millisecond) // strangle the loop consumer
			}
		},
	}, WithBuffer(1))
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, blaster, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(blaster, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectLoop(blaster, 1, slow, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("saturated loop edge deadlocked the graph")
	}
	var dropped int64
	for _, m := range g.Metrics() {
		if m.Name == "blaster" {
			dropped = m.Dropped
		}
	}
	if dropped == 0 {
		t.Fatal("expected loop-edge drops under saturation")
	}
}

func TestSplitZeroOutputsIsSafe(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(5))
	sp := g.Add("split", &Split{N: 0})
	if err := g.Connect(src, 0, sp, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBroadcastsBarriers(t *testing.T) {
	// Checkpoint barriers must reach every output port so all engines cut a
	// consistent checkpoint; data frames still go to exactly one port.
	sp := &Split{N: 3, Seed: 7}
	got := map[int][]Message{}
	emit := func(port int, msg Message) { got[port] = append(got[port], msg) }
	sp.Process(0, Frame{Seq: 1, Tuples: []Tuple{{Seq: 1}}}, emit)
	sp.Process(0, Barrier{Epoch: 7}, emit)
	sp.Process(0, Frame{Seq: 2, Tuples: []Tuple{{Seq: 2}}}, emit)
	barriers, frames := 0, 0
	for p := 0; p < 3; p++ {
		sawBarrier := false
		for _, m := range got[p] {
			switch v := m.(type) {
			case Barrier:
				if v.Epoch != 7 {
					t.Fatalf("port %d barrier epoch = %d", p, v.Epoch)
				}
				sawBarrier = true
				barriers++
			case Frame:
				frames++
			}
		}
		if !sawBarrier {
			t.Fatalf("port %d missed the barrier", p)
		}
	}
	if barriers != 3 || frames != 2 {
		t.Fatalf("barriers=%d frames=%d, want 3 and 2", barriers, frames)
	}
}
