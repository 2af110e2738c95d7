package stream

import (
	"context"
	goruntime "runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/obs"
)

// TestHopAllocatesNothingPerMessage: once a graph runs, carrying a message
// the source has already boxed across two hops (source → op → sink)
// allocates nothing per delivery. Setup is taken out by differencing two run
// lengths.
func TestHopAllocatesNothingPerMessage(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var msg Message = Frame{Seq: 1, Tuples: []Tuple{{Seq: 1, Vec: []float64{1, 2}}}}
	run := func(n int64) {
		g := NewGraph()
		src := g.AddSource("src", CounterSource(n, func(int64) Message { return msg }))
		op := g.Add("op", &FuncOperator{OnMessage: func(_ int, m Message, emit Emit) { emit(0, m) }})
		snk := g.Add("sink", &FuncOperator{})
		if err := g.Connect(src, 0, op, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(op, 0, snk, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	const short, long = 2_000, 22_000
	base := testing.AllocsPerRun(3, func() { run(short) })
	full := testing.AllocsPerRun(3, func() { run(long) })
	per := (full - base) / (long - short)
	t.Logf("%.4f allocations per message", per)
	if per > 0.01 {
		t.Fatalf("a delivered message allocates %.3f times, want 0", per)
	}
}

// sleeper is an operator whose Process sleeps for d and counts its calls.
func sleeper(d time.Duration, calls *atomic.Int64) *FuncOperator {
	return &FuncOperator{OnMessage: func(int, Message, Emit) {
		calls.Add(1)
		time.Sleep(d)
	}}
}

// runOp runs src → op (buffer 64) to completion, returning op's metrics and
// the wall time around Run.
func runOp(t *testing.T, src SourceFunc, op Operator, set *obs.Set) (MetricsSnapshot, time.Duration) {
	t.Helper()
	g := NewGraph()
	s := g.AddSource("src", src)
	o := g.Add("op", op)
	if err := g.Connect(s, 0, o, 0); err != nil {
		t.Fatal(err)
	}
	g.Instrument(set)
	start := time.Now()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	return g.Metrics()[o], wall
}

// TestBusyExcludesBlockedWaits: an operator that works 1 ms per message,
// fed by a source pausing 5 ms between messages, waits for input most of
// the time; Busy counts the work and not the waits.
func TestBusyExcludesBlockedWaits(t *testing.T) {
	const n = 20
	paced := func(ctx context.Context, emit Emit) error {
		for i := int64(0); i < n; i++ {
			emit(0, i)
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	}
	var calls atomic.Int64
	m, _ := runOp(t, paced, sleeper(time.Millisecond, &calls), nil)
	if calls.Load() != n {
		t.Fatalf("op ran %d times, want %d", calls.Load(), n)
	}
	if m.Busy < n*time.Millisecond || m.Busy >= n*3*time.Millisecond {
		t.Fatalf("Busy = %v for %d deliveries of 1 ms spaced 5 ms apart, want in [%v, %v)",
			m.Busy, n, n*time.Millisecond, n*3*time.Millisecond)
	}
}

// TestBusyUnderSaturationWithinWall: under a saturating source the chained
// delivery clock counts every Process in full and never more than the run
// lasted.
func TestBusyUnderSaturationWithinWall(t *testing.T) {
	const n = 50
	var calls atomic.Int64
	m, wall := runOp(t, intSource(n), sleeper(time.Millisecond, &calls), nil)
	if m.Busy < n*time.Millisecond || m.Busy > wall {
		t.Fatalf("Busy = %v for %d deliveries of 1 ms in a %v run, want in [%v, %v]",
			m.Busy, n, wall, n*time.Millisecond, wall)
	}
}

// TestBusyExcludesBlockedSends: a Split feeding a sink that works 1 ms per
// message through a one-slot queue waits for room on almost every send; its
// Busy counts its own work and not those waits.
func TestBusyExcludesBlockedSends(t *testing.T) {
	const n = 40
	var calls atomic.Int64
	g := NewGraph()
	s := g.AddSource("src", intSource(n))
	sp := g.Add("split", &Split{N: 1, Seed: 1})
	o := g.Add("sink", sleeper(time.Millisecond, &calls), WithBuffer(1))
	if err := g.Connect(s, 0, sp, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(sp, 0, o, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if calls.Load() != n {
		t.Fatalf("sink ran %d times, want %d", calls.Load(), n)
	}
	if busy := g.Metrics()[sp].Busy; busy < 0 || busy > wall/4 {
		t.Fatalf("split Busy = %v in a %v run behind a 1 ms sink, want under a quarter of it", busy, wall)
	}
}

// TestSpanStartsNeverDecrease: the instrumented busy spans of one node are
// ordered and disjoint — each starts no earlier than the previous one ended
// — whether a delivery's start was read after a blocked wait or chained
// from the previous delivery's end.
func TestSpanStartsNeverDecrease(t *testing.T) {
	set := obs.NewSet()
	mixed := func(ctx context.Context, emit Emit) error {
		for i := int64(0); i < 1500; i++ {
			emit(0, i)
			if i%100 == 0 {
				time.Sleep(time.Millisecond) // let the op block now and then
			}
		}
		return nil
	}
	runOp(t, mixed, &FuncOperator{}, set)
	spans := set.Op("op").Spans.Spans()
	if len(spans) != 1500 {
		t.Fatalf("recorded %d spans, want 1500", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if prev := spans[i-1]; spans[i].StartNs < prev.StartNs+prev.DurNs {
			t.Fatalf("span %d starts at %d, before span %d ended at %d",
				i, spans[i].StartNs, i-1, prev.StartNs+prev.DurNs)
		}
	}
}

// TestCancelDrainsAtMostQueue: an operator kept saturated behind a queue of
// b messages makes at most b+1 deliveries after cancel — its queue plus the
// one message a blocked sender may still land — then Run returns promptly
// and every goroutine of the run exits.
func TestCancelDrainsAtMostQueue(t *testing.T) {
	const b = 4
	baseline := goruntime.NumGoroutine()
	g := NewGraph()
	src := g.AddSource("src", intSource(-1))
	var calls atomic.Int64
	op := g.Add("op", sleeper(2*time.Millisecond, &calls), WithBuffer(b))
	if err := g.Connect(src, 0, op, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	for calls.Load() < 10 {
		time.Sleep(time.Millisecond)
	}
	before := calls.Load()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if after := calls.Load() - before; after > b+1 {
		t.Fatalf("%d deliveries after cancel behind a %d-message queue, want ≤ %d", after, b, b+1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, baseline %d", goruntime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSplitHop: frames of one from a source through Split to four
// no-op sinks — the unbatched pipeline's per-tuple transport path.
func BenchmarkSplitHop(b *testing.B) {
	var msg Message = Frame{Tuples: []Tuple{{Vec: make([]float64, 16)}}}
	b.ReportAllocs()
	g := NewGraph()
	src := g.AddSource("src", CounterSource(int64(b.N), func(int64) Message { return msg }))
	split := g.Add("split", &Split{N: 4, Seed: 1})
	if err := g.Connect(src, 0, split, 0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		snk := g.Add("sink"+strconv.Itoa(i), &FuncOperator{})
		if err := g.Connect(split, i, snk, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	if err := g.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	if in := g.Metrics()[split].In; in != int64(b.N) {
		b.Fatalf("split received %d/%d", in, b.N)
	}
}
