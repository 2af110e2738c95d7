package fault

import (
	"context"
	"math"
	"slices"
	"testing"

	"streampca/internal/stream"
)

func chaosPlan(seed uint64) Plan {
	return Plan{Seed: seed, Drop: 0.1, Duplicate: 0.05, Delay: 0.08, MaxDelay: 6, Reorder: 0.07}
}

// TestInjectorDeterminism is the core guarantee: the fault schedule is a
// pure function of (seed, message count) — same seed, byte-identical log.
func TestInjectorDeterminism(t *testing.T) {
	run := func(seed uint64) (string, []Event, []stream.Message) {
		in := NewInjector(chaosPlan(seed))
		var fwd []stream.Message
		for i := 0; i < 5000; i++ {
			out, _ := in.Tap(int64(i))
			fwd = append(fwd, out...)
		}
		out, _ := in.Drain()
		fwd = append(fwd, out...)
		return in.Log(), in.Events(), fwd
	}
	log1, ev1, fwd1 := run(42)
	log2, ev2, fwd2 := run(42)
	if log1 != log2 {
		t.Fatal("same seed produced different fault logs")
	}
	if len(ev1) == 0 {
		t.Fatal("plan injected no faults at all")
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs: %v vs %v", i, ev1[i], ev2[i])
		}
	}
	if len(fwd1) != len(fwd2) {
		t.Fatalf("forwarded stream lengths differ: %d vs %d", len(fwd1), len(fwd2))
	}
	for i := range fwd1 {
		if fwd1[i] != fwd2[i] {
			t.Fatalf("forwarded message %d differs", i)
		}
	}
	log3, _, _ := run(43)
	if log3 == log1 {
		t.Fatal("different seeds produced identical fault logs (suspicious)")
	}
}

// TestInjectorConservation checks message accounting: every message in is
// either forwarded (possibly twice), dropped, or held — and drain releases
// all holds. No silent loss.
func TestInjectorConservation(t *testing.T) {
	in := NewInjector(chaosPlan(7))
	const n = 10000
	forwarded, dropped := 0, 0
	for i := 0; i < n; i++ {
		out, d := in.Tap(int64(i))
		forwarded += len(out)
		dropped += d
	}
	out, d := in.Drain()
	forwarded += len(out)
	dropped += d
	dups := int(in.Count(Duplicate))
	if forwarded != n-dropped+dups {
		t.Fatalf("conservation violated: forwarded %d, dropped %d, dups %d of %d in",
			forwarded, dropped, dups, n)
	}
	if in.Seen() != n {
		t.Fatalf("Seen = %d, want %d", in.Seen(), n)
	}
	if dropped != int(in.Count(Drop)) {
		t.Fatalf("dropped %d but Drop events %d", dropped, in.Count(Drop))
	}
}

// TestInjectorRates sanity-checks that injection frequencies track the
// configured probabilities.
func TestInjectorRates(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, Drop: 0.2, Duplicate: 0.1})
	const n = 20000
	for i := 0; i < n; i++ {
		in.Tap(i)
	}
	if got := float64(in.Count(Drop)) / n; got < 0.17 || got > 0.23 {
		t.Fatalf("drop rate %v far from 0.2", got)
	}
	if got := float64(in.Count(Duplicate)) / n; got < 0.08 || got > 0.12 {
		t.Fatalf("dup rate %v far from 0.1", got)
	}
}

// TestInjectorDelayBounded: a delayed message reappears within MaxDelay
// successors, and reordering is an adjacent swap.
func TestInjectorDelayBounded(t *testing.T) {
	in := NewInjector(Plan{Seed: 11, Delay: 0.3, MaxDelay: 5})
	var got []int
	for i := 0; i < 2000; i++ {
		out, _ := in.Tap(i)
		for _, m := range out {
			got = append(got, m.(int))
		}
	}
	out, _ := in.Drain()
	for _, m := range out {
		got = append(got, m.(int))
	}
	if len(got) != 2000 {
		t.Fatalf("delay-only plan must not lose or add messages, got %d", len(got))
	}
	seen := make([]bool, 2000)
	for pos, v := range got {
		if seen[v] {
			t.Fatalf("message %d delivered twice", v)
		}
		seen[v] = true
		// A message may trail its in-order position by at most MaxDelay+1
		// (its own hold plus earlier releases shuffling ahead).
		if pos-v > 6 || v-pos > 6 {
			t.Fatalf("message %d displaced to position %d: delay not bounded", v, pos)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Drop: -0.1},
		{Drop: 0.6, Duplicate: 0.6},
		{MaxDelay: -1},
		{PanicAfter: -2},
		{Reorder: 1.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %+v should fail validation", p)
		}
	}
	if err := (Plan{Drop: 0.5, Duplicate: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWrapOperatorPanics: the wrapper panics exactly once with an
// InjectedPanic, and passes traffic through otherwise.
func TestWrapOperatorPanics(t *testing.T) {
	inner := &stream.Collect{}
	op := WrapOperator(inner, Plan{PanicAfter: 3})
	emit := func(int, stream.Message) {}
	op.Process(0, 1, emit)
	op.Process(0, 2, emit)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic at message 3")
			}
			if _, ok := r.(InjectedPanic); !ok {
				t.Fatalf("panic value %T, want InjectedPanic", r)
			}
		}()
		op.Process(0, 3, emit)
	}()
	op.Process(0, 4, emit) // one-shot: no second panic
	if len(inner.Items) != 3 {
		t.Fatalf("inner saw %d messages, want 3 (panic message is lost)", len(inner.Items))
	}
	if got := WrapOperator(inner, Plan{}); got != stream.Operator(inner) {
		t.Fatal("no-panic plan should return the operator unchanged")
	}
}

// TestInjectedDropsVisibleInGraphMetrics is the drop-accounting regression:
// tuples the injector discards must appear in the sender's Dropped metric
// via Graph.Metrics, exactly like loop-edge drops.
func TestInjectedDropsVisibleInGraphMetrics(t *testing.T) {
	g := stream.NewGraph()
	src := g.AddSource("src", stream.CounterSource(4000, func(seq int64) stream.Message {
		return seq
	}))
	sink := &stream.Collect{}
	snk := g.Add("sink", sink)
	if err := g.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(Plan{Seed: 3, Drop: 0.1})
	if err := g.TapEdge(src, 0, snk, 0, inj); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	drops := inj.Count(Drop)
	if drops == 0 {
		t.Fatal("no drops injected")
	}
	if got := int64(len(sink.Items)); got != 4000-drops {
		t.Fatalf("sink received %d, want %d", got, 4000-drops)
	}
	var m stream.MetricsSnapshot
	for _, s := range g.Metrics() {
		if s.Name == "src" {
			m = s
		}
	}
	if m.Dropped != drops {
		t.Fatalf("Graph.Metrics Dropped = %d, injector dropped %d — injected drops must be observable", m.Dropped, drops)
	}
}

// pooledFrame builds a two-row frame holding a mask, whose Release counts
// its calls in released[seq].
func pooledFrame(seq int64, released map[int64]int) stream.Frame {
	return stream.Frame{
		Seq: seq,
		Tuples: []stream.Tuple{
			{Seq: seq, Vec: []float64{1, 2, 3}},
			{Seq: seq + 1, Vec: []float64{4, math.NaN(), 6}, Mask: []bool{true, false, true}},
		},
		Trace:   stream.Trace{Origin: 1, IngestNs: seq + 100},
		Release: func() { released[seq]++ },
	}
}

// TestInjectorDuplicateOwnsItsCopy pins the ownership rule that lets chaos
// runs keep the frame pool: a duplicated pooled frame goes out once as
// itself and once as a deep copy with no Release, a dropped one is released
// by the injector, and held ones are left to their eventual consumer.
func TestInjectorDuplicateOwnsItsCopy(t *testing.T) {
	released := map[int64]int{}
	in := NewInjector(Plan{Seed: 1, Duplicate: 1})
	f := pooledFrame(10, released)
	out, _ := in.Tap(f)
	if len(out) != 2 {
		t.Fatalf("duplicate forwarded %d messages, want 2", len(out))
	}
	a, b := out[0].(stream.Frame), out[1].(stream.Frame)
	if (a.Release == nil) == (b.Release == nil) {
		t.Fatal("want exactly one of the two duplicates to carry the Release")
	}
	if a.Seq != b.Seq || a.Trace != b.Trace || len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("duplicates differ: %+v vs %+v", a, b)
	}
	for i := range a.Tuples {
		ta, tb := a.Tuples[i], b.Tuples[i]
		if ta.Seq != tb.Seq || !slices.EqualFunc(ta.Vec, tb.Vec, func(x, y float64) bool {
			return x == y || math.IsNaN(x) && math.IsNaN(y)
		}) || !slices.Equal(ta.Mask, tb.Mask) || (ta.Mask == nil) != (tb.Mask == nil) {
			t.Fatalf("tuple %d differs between duplicates", i)
		}
		if &ta.Vec[0] == &tb.Vec[0] || ta.Mask != nil && &ta.Mask[0] == &tb.Mask[0] {
			t.Fatalf("tuple %d: duplicates share storage", i)
		}
	}
	if released[10] != 0 {
		t.Fatal("the injector released a frame it forwarded")
	}

	in = NewInjector(Plan{Seed: 1, Drop: 1})
	if out, d := in.Tap(pooledFrame(20, released)); len(out) != 0 || d != 1 {
		t.Fatalf("drop forwarded %d, dropped %d", len(out), d)
	}
	if released[20] != 1 {
		t.Fatalf("dropped frame released %d times, want 1", released[20])
	}

	for _, plan := range []Plan{{Seed: 1, Delay: 1, MaxDelay: 3}, {Seed: 1, Reorder: 1}} {
		in = NewInjector(plan)
		for seq := int64(30); seq < 40; seq++ {
			in.Tap(pooledFrame(seq, released))
		}
		in.Drain()
		for seq := int64(30); seq < 40; seq++ {
			if released[seq] != 0 {
				t.Fatalf("%+v: the injector released held frame %d", plan, seq)
			}
		}
	}
}

// FuzzInjector hammers the injector with arbitrary plans and message
// counts, asserting it never panics, never loses messages (conservation),
// stays deterministic, and keeps every pooled frame single-owner: each
// frame's Release is either called once by the injector (a drop) or rides
// exactly one forwarded message.
func FuzzInjector(f *testing.F) {
	f.Add(uint64(1), 0.1, 0.05, 0.08, 0.07, 5, 500)
	f.Add(uint64(99), 0.0, 0.0, 0.0, 0.0, 0, 10)
	f.Add(uint64(7), 0.9, 0.05, 0.03, 0.02, 1, 2000)
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, delay, reorder float64, maxDelay, n int) {
		clamp := func(v float64) float64 {
			if v != v || v < 0 {
				return 0
			}
			if v > 1 {
				return 1
			}
			return v
		}
		drop, dup, delay, reorder = clamp(drop), clamp(dup), clamp(delay), clamp(reorder)
		if s := drop + dup + delay + reorder; s > 1 {
			drop, dup, delay, reorder = drop/s, dup/s, delay/s, reorder/s
		}
		if maxDelay < 0 {
			maxDelay = 0
		}
		if maxDelay > 64 {
			maxDelay = 64
		}
		if n < 0 {
			n = 0
		}
		if n > 5000 {
			n = 5000
		}
		plan := Plan{Seed: seed, Drop: drop, Duplicate: dup, Delay: delay,
			Reorder: reorder, MaxDelay: maxDelay}
		run := func() (int, int, string) {
			in := NewInjector(plan)
			released, owners := map[int64]int{}, map[int64]int{}
			forwarded, droppedN := 0, 0
			count := func(out []stream.Message, d int) {
				forwarded += len(out)
				droppedN += d
				for _, m := range out {
					if f := m.(stream.Frame); f.Release != nil {
						owners[f.Seq]++
					}
				}
			}
			for i := 0; i < n; i++ {
				count(in.Tap(pooledFrame(int64(i), released)))
			}
			count(in.Drain())
			for i := int64(0); i < int64(n); i++ {
				if released[i] > 1 || owners[i] > 1 || released[i]+owners[i] != 1 {
					t.Fatalf("frame %d: released %d times by the injector, forwarded with its Release %d times",
						i, released[i], owners[i])
				}
			}
			return forwarded + droppedN - int(in.Count(Duplicate)), droppedN, in.Log()
		}
		total1, _, log1 := run()
		total2, _, log2 := run()
		if total1 != n {
			t.Fatalf("conservation violated: accounted %d of %d messages", total1, n)
		}
		if total2 != total1 || log1 != log2 {
			t.Fatal("injector is nondeterministic")
		}
	})
}
