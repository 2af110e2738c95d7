package stream

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"
)

// TestFrameTupleWeightedMetrics pins the micro-batch accounting: a Frame
// moves as one message (In/Out count 1) but weighs as its batch size in the
// TuplesIn/TuplesOut counters, and control-plane messages weigh zero.
func TestFrameTupleWeightedMetrics(t *testing.T) {
	const frames, batch = 25, 16
	g := NewGraph()
	src := g.AddSource("src", CounterSource(frames, func(seq int64) Message {
		f := Frame{Seq: seq * batch}
		for i := 0; i < batch; i++ {
			f.Tuples = append(f.Tuples, Tuple{Seq: seq*batch + int64(i)})
		}
		return f
	}))
	var sawTuples int64
	op := g.Add("op", &FuncOperator{
		OnMessage: func(_ int, msg Message, emit Emit) {
			f := msg.(Frame)
			sawTuples += int64(len(f.Tuples))
			emit(0, f)
			emit(0, Control{Round: f.Seq}) // weight-zero traffic on the same edge
		},
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
	if sawTuples != frames*batch {
		t.Fatalf("operator saw %d tuples, want %d", sawTuples, frames*batch)
	}
	byName := map[string]MetricsSnapshot{}
	for _, m := range g.Metrics() {
		byName[m.Name] = m
	}
	if m := byName["src"]; m.Out != frames || m.TuplesOut != frames*batch {
		t.Fatalf("src metrics: %+v", m)
	}
	if m := byName["op"]; m.In != frames || m.TuplesIn != frames*batch ||
		m.Out != 2*frames || m.TuplesOut != frames*batch {
		t.Fatalf("op metrics: %+v", m)
	}
	if m := byName["sink"]; m.In != 2*frames || m.TuplesIn != frames*batch {
		t.Fatalf("sink metrics: %+v", m)
	}
}

// TestSplitForwardsFramesWhole checks that the split scatters frames as
// indivisible units: each downstream engine receives whole frames, never a
// fraction of one, and together they receive every frame.
func TestSplitForwardsFramesWhole(t *testing.T) {
	const frames, batch = 24, 8
	g := NewGraph()
	src := g.AddSource("src", CounterSource(frames, func(seq int64) Message {
		f := Frame{Seq: seq * batch, Tuples: make([]Tuple, batch)}
		for i := range f.Tuples {
			f.Tuples[i] = Tuple{Seq: seq*batch + int64(i)}
		}
		return f
	}))
	sp := g.Add("split", &Split{N: 3, Seed: 7})
	sinks := make([]*Collect, 3)
	for i := range sinks {
		sinks[i] = &Collect{}
		id := g.Add("sink", sinks[i])
		if err := g.Connect(sp, i, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect(src, 0, sp, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range sinks {
		total += len(s.Items)
		for _, m := range s.Items {
			f, ok := m.(Frame)
			if !ok {
				t.Fatalf("sink %d received a %T, want Frame", i, m)
			}
			if len(f.Tuples) != batch {
				t.Fatalf("sink %d received a fractured frame of %d tuples", i, len(f.Tuples))
			}
		}
	}
	if total != frames {
		t.Fatalf("sinks received %d frames, want %d", total, frames)
	}
}

// releaseHandoff stands in for the goroutine a frame's Release escapes to.
var releaseHandoff func()

// TestFramePoolCycleAllocatesNothing: at steady state a pooled store's whole
// trip — get, add a row and its mask, hand the frame's Release to the
// consumer, Release — allocates nothing, because the store's Release closure
// is built once, when the pool creates the store, and its mask block is kept
// across frames. A pool sized for 0 rows holds 1, so frames of one are pooled
// too.
func TestFramePoolCycleAllocatesNothing(t *testing.T) {
	if NewFramePool(0, 4) != nil {
		t.Fatal("a dim-0 pool must disable pooling")
	}
	const dim = 16
	fp := NewFramePool(dim, 0)
	if !fp.Fits(dim, 1) || fp.Fits(dim, 2) || fp.Fits(dim+1, 1) {
		t.Fatal("a rows-0 pool must pool frames of one row of its dim")
	}
	if raceBuild() {
		t.Skip("the race detector's sync.Pool drops Puts")
	}
	allocs := testing.AllocsPerRun(100, func() {
		fs := fp.Get()
		fs.Add(7, 1)[0] = 1
		fs.Mask(0)[0] = true
		f := fs.Frame(Trace{})
		if f.Seq != 7 || len(f.Tuples) != 1 || len(f.Tuples[0].Mask) != dim {
			t.Fatalf("frame %+v", f)
		}
		releaseHandoff = f.Release
		releaseHandoff()
	})
	if allocs != 0 {
		t.Fatalf("pooled get → add → Release allocates %v per frame, want 0", allocs)
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops a random share of Puts (so Gets allocate).
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
