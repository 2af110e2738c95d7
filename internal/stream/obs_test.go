package stream

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/obs"
)

func TestInstrumentRecordsHistogramsAndSpans(t *testing.T) {
	set := obs.NewSet()
	g := NewGraph()
	src := g.AddSource("src", intSource(200))
	mid := g.Add("mid", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) { emit(0, msg) },
	})
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, mid, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mid, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	g.Instrument(set)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mid", "sink"} {
		op := set.Op(name)
		lat := op.Latency.Snapshot()
		if lat.Count != 200 {
			t.Errorf("%s latency count = %d, want 200", name, lat.Count)
		}
		size := op.BatchSize.Snapshot()
		if size.Count != 200 {
			t.Errorf("%s batch-size count = %d, want 200", name, size.Count)
		}
		if op.QueueDepth.Snapshot().Count != 200 {
			t.Errorf("%s queue-depth samples missing", name)
		}
		if len(op.Spans.Spans()) == 0 {
			t.Errorf("%s recorded no busy spans", name)
		}
	}
	// An uninstrumented graph still runs (nil inst path).
	g2 := NewGraph()
	s2 := g2.AddSource("src", intSource(10))
	k2 := g2.Add("sink", &Collect{})
	if err := g2.Connect(s2, 0, k2, 0); err != nil {
		t.Fatal(err)
	}
	if err := g2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestThrottledSinkReportsQueueLen is the backpressure-observability
// contract: a sink slower than its source must show a non-zero input-queue
// backlog in MetricsSnapshot.QueueLen while the run is in flight.
func TestThrottledSinkReportsQueueLen(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", intSource(500))
	slow := g.Add("slow", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) {
			time.Sleep(2 * time.Millisecond)
			emit(0, msg)
		},
	}, WithBuffer(32))
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, slow, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(slow, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()

	sawBacklog := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !sawBacklog {
		for _, m := range g.Metrics() {
			if m.Name == "slow" && m.QueueLen > 0 {
				sawBacklog = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if !sawBacklog {
		t.Fatal("throttled operator never reported a non-zero QueueLen")
	}
	// After the run, QueueLen reads zero again (graph not running).
	for _, m := range g.Metrics() {
		if m.QueueLen != 0 {
			t.Fatalf("QueueLen after Run = %d, want 0", m.QueueLen)
		}
	}
}

// chaosOp panics every periodth message until revived, forever.
type chaosOp struct {
	period int
	seen   int
}

func (c *chaosOp) Process(_ int, msg Message, emit Emit) {
	c.seen++
	if c.period > 0 && c.seen%c.period == 0 {
		panic("chaos")
	}
	emit(0, msg)
}

func (c *chaosOp) Flush(Emit) {}

// TestMetricsConsistencyUnderChaos samples Graph.Metrics concurrently with a
// run in which an operator repeatedly fails and revives, and checks the
// snapshot invariants: a pass-through operator never emits more tuples than
// it consumed, and Dropped is monotone while faults fire.
func TestMetricsConsistencyUnderChaos(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", CounterSource(-1, func(seq int64) Message {
		return Frame{Seq: seq, Tuples: []Tuple{{Seq: seq, Vec: []float64{float64(seq)}}}}
	}))
	mid := g.Add("mid", &chaosOp{period: 100})
	snk := g.Add("sink", &Collect{})
	if err := g.Connect(src, 0, mid, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mid, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	g.OnNodeFailure(func(f NodeFailure) {
		failures.Add(1)
		go g.Revive(f.Node, nil) //nolint:errcheck // revive may race shutdown
	})

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); g.Run(ctx) }() //nolint:errcheck

	lastDropped := map[string]int64{}
	for {
		select {
		case <-done:
			if failures.Load() == 0 {
				t.Fatal("chaos never fired; test exercised nothing")
			}
			for _, m := range g.Metrics() {
				if m.Name == "mid" && m.TuplesOut > m.TuplesIn {
					t.Fatalf("final snapshot: TuplesOut %d > TuplesIn %d", m.TuplesOut, m.TuplesIn)
				}
			}
			return
		default:
		}
		for _, m := range g.Metrics() {
			if m.TuplesOut > m.TuplesIn && m.Name != "src" {
				t.Fatalf("%s: TuplesOut %d > TuplesIn %d", m.Name, m.TuplesOut, m.TuplesIn)
			}
			if m.Dropped < lastDropped[m.Name] {
				t.Fatalf("%s: Dropped went backwards (%d → %d)", m.Name, lastDropped[m.Name], m.Dropped)
			}
			lastDropped[m.Name] = m.Dropped
			if m.In < 0 || m.Out < 0 || m.Busy < 0 || m.QueueLen < 0 {
				t.Fatalf("%s: negative counter in %+v", m.Name, m)
			}
		}
	}
}
