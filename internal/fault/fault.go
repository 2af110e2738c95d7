// Package fault is a deterministic fault-injection layer for the stream
// engine. The paper's robustness story (§III-B/C: data-driven sync,
// periodic checkpoints "saved to the disk for future reference") is only as
// good as the failure modes it is tested under, so this package makes
// failure a first-class, *seedable* input: an Injector wraps any stream
// edge (via stream.Graph.TapEdge) or operator (via WrapOperator) and
// injects tuple drop, duplication, reordering, bounded delay, and operator
// panic from a PRNG schedule that depends only on the seed and the message
// count — never on the wall clock. Two runs with the same seed therefore
// produce byte-identical fault logs, which is what makes chaos tests
// regressions instead of noise.
package fault

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"streampca/internal/stream"
)

// Kind enumerates the injectable fault types.
type Kind uint8

const (
	// Drop discards the message.
	Drop Kind = iota
	// Duplicate forwards the message twice.
	Duplicate
	// Delay holds the message and releases it after 1..MaxDelay subsequent
	// messages (bounded logical delay; no wall clock involved).
	Delay
	// Reorder holds the message and emits it right after its successor
	// (an adjacent swap).
	Reorder
	// Panic is an injected operator panic (WrapOperator only).
	Panic
	numKinds = 5
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Duplicate:
		return "dup"
	case Delay:
		return "delay"
	case Reorder:
		return "reorder"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Plan is the fault profile for one edge or operator. Probabilities are
// per-message and mutually exclusive (one roll decides): Drop + Duplicate +
// Delay + Reorder must not exceed 1.
type Plan struct {
	// Seed drives the injection PRNG; the schedule is a pure function of
	// (Seed, message count).
	Seed uint64
	// Drop is the probability a message is discarded.
	Drop float64
	// Duplicate is the probability a message is forwarded twice.
	Duplicate float64
	// Delay is the probability a message is held for a bounded number of
	// successors before release.
	Delay float64
	// MaxDelay bounds the hold in messages (default 4).
	MaxDelay int
	// Reorder is the probability a message swaps places with its successor.
	Reorder float64
	// PanicAfter, for WrapOperator, panics the wrapped operator on its
	// N-th processed message (one-shot; 0 = never).
	PanicAfter int64
}

// Validate checks the probabilities are sane.
func (p Plan) Validate() error {
	for _, v := range []float64{p.Drop, p.Duplicate, p.Delay, p.Reorder} {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: probability %v out of [0,1]", v)
		}
	}
	// Allow a hair of floating-point slack: a probability set normalized by
	// dividing through its sum can land at 1 + ulp, and a cumulative
	// threshold of 1+ε is still well-defined against a roll in [0,1).
	if s := p.Drop + p.Duplicate + p.Delay + p.Reorder; s > 1+1e-9 {
		return fmt.Errorf("fault: probabilities sum to %v > 1", s)
	}
	if p.MaxDelay < 0 || p.PanicAfter < 0 {
		return fmt.Errorf("fault: negative MaxDelay or PanicAfter")
	}
	return nil
}

// Event is one injected fault in the deterministic schedule.
type Event struct {
	// Seq is the 0-based message index on the guarded edge/operator.
	Seq int64
	// Kind is the injected fault.
	Kind Kind
}

// Injector implements stream.Tap: a seedable, wall-clock-free fault
// machine for one edge. It must guard exactly one edge (stream invokes a
// tap from the sending node's goroutine only, so no locking is needed).
type Injector struct {
	plan Plan
	rng  *rand.Rand
	seq  int64

	held   []heldMsg
	swap   stream.Message
	hasSwp bool

	events []Event
	counts [numKinds]int64
}

type heldMsg struct {
	msg  stream.Message
	left int // releases when it reaches 0
}

// NewInjector builds an injector for plan; it panics on an invalid plan
// (misconfigured chaos is a programming error, not a runtime condition).
func NewInjector(plan Plan) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 4
	}
	return &Injector{
		plan: plan,
		rng:  rand.New(rand.NewPCG(plan.Seed, 0xfa17)),
	}
}

func (in *Injector) record(seq int64, k Kind) {
	in.events = append(in.events, Event{Seq: seq, Kind: k})
	in.counts[k]++
}

// Tap implements stream.Tap: one PRNG roll decides this message's fate,
// then any held messages whose bounded delay expired are appended.
//
// The injector keeps pooled frames single-owner. It releases a frame it
// drops, and it duplicates a frame with a Release by forwarding the frame
// itself once and a deep copy with a nil Release once, so each delivery has
// exactly one owner and the pool sees exactly one Release.
func (in *Injector) Tap(msg stream.Message) ([]stream.Message, int) {
	seq := in.seq
	in.seq++
	var out []stream.Message
	dropped := 0
	p := in.plan
	u := in.rng.Float64()
	switch {
	case u < p.Drop:
		in.record(seq, Drop)
		dropped = 1
		stream.ReleaseFrame(msg)
	case u < p.Drop+p.Duplicate:
		in.record(seq, Duplicate)
		dup := msg
		if f, ok := msg.(stream.Frame); ok && f.Release != nil {
			dup = cloneFrame(f)
		}
		out = append(out, msg, dup)
	case u < p.Drop+p.Duplicate+p.Delay:
		in.record(seq, Delay)
		d := 1
		if p.MaxDelay > 1 {
			d += in.rng.IntN(p.MaxDelay)
		}
		in.held = append(in.held, heldMsg{msg: msg, left: d})
	case u < p.Drop+p.Duplicate+p.Delay+p.Reorder:
		if !in.hasSwp {
			in.record(seq, Reorder)
			in.swap, in.hasSwp = msg, true
		} else {
			// A swap is already pending; pass this message through so
			// adjacent swaps stay adjacent.
			out = append(out, msg)
		}
	default:
		out = append(out, msg)
	}
	// A pending swap releases right after the next forwarded message.
	if in.hasSwp && len(out) > 0 {
		out = append(out, in.swap)
		in.swap, in.hasSwp = nil, false
	}
	// Age the bounded-delay queue; expired messages release in FIFO order.
	if len(in.held) > 0 {
		rest := in.held[:0]
		for i := range in.held {
			in.held[i].left--
			if in.held[i].left <= 0 {
				out = append(out, in.held[i].msg)
			} else {
				rest = append(rest, in.held[i])
			}
		}
		in.held = rest
	}
	return out, dropped
}

// cloneFrame deep-copies f into an unpooled store: the copy's Release is nil.
func cloneFrame(f stream.Frame) stream.Frame {
	fs := stream.NewFrameStore(len(f.Tuples[0].Vec), len(f.Tuples))
	for i, t := range f.Tuples {
		copy(fs.Add(t.Seq, 1), t.Vec)
		if t.Mask != nil {
			copy(fs.Mask(i), t.Mask)
		}
	}
	return fs.Frame(f.Trace)
}

// Drain implements stream.Tap: it releases everything still held so
// injected delays cannot lose messages at end-of-stream.
func (in *Injector) Drain() ([]stream.Message, int) {
	var out []stream.Message
	if in.hasSwp {
		out = append(out, in.swap)
		in.swap, in.hasSwp = nil, false
	}
	for _, h := range in.held {
		out = append(out, h.msg)
	}
	in.held = nil
	return out, 0
}

// Seen returns how many messages have passed through the injector.
func (in *Injector) Seen() int64 { return in.seq }

// Count returns how many faults of kind k were injected.
func (in *Injector) Count(k Kind) int64 {
	if int(k) >= numKinds {
		return 0
	}
	return in.counts[k]
}

// Events returns the injected fault schedule, in order.
func (in *Injector) Events() []Event {
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// Log renders the fault schedule as a deterministic, byte-stable text log:
// one "seq kind" line per event. Two runs with the same seed and the same
// message count produce identical logs.
func (in *Injector) Log() string {
	var b strings.Builder
	for _, e := range in.events {
		fmt.Fprintf(&b, "%d %s\n", e.Seq, e.Kind)
	}
	return b.String()
}

// InjectedPanic is the value an operator wrapped by WrapOperator panics
// with, so recovery layers can distinguish chaos from real bugs.
type InjectedPanic struct {
	// Seq is the 1-based message count at which the panic fired.
	Seq int64
}

// Error implements error.
func (e InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected panic at message %d", e.Seq)
}

// opWrapper forwards to an inner operator but panics once after
// plan.PanicAfter processed messages.
type opWrapper struct {
	op    stream.Operator
	after int64
	seen  int64
	fired bool
}

// WrapOperator returns op unchanged when plan injects no panic; otherwise
// it returns an operator that forwards every call to op but panics with an
// InjectedPanic on its PanicAfter-th message, once. The message that
// triggers the panic is lost — exactly what a real mid-Process crash does.
func WrapOperator(op stream.Operator, plan Plan) stream.Operator {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if plan.PanicAfter <= 0 {
		return op
	}
	return &opWrapper{op: op, after: plan.PanicAfter}
}

// Process implements stream.Operator.
func (w *opWrapper) Process(port int, msg stream.Message, emit stream.Emit) {
	w.seen++
	if !w.fired && w.seen >= w.after {
		w.fired = true
		panic(InjectedPanic{Seq: w.seen})
	}
	w.op.Process(port, msg, emit)
}

// Flush implements stream.Operator.
func (w *opWrapper) Flush(emit stream.Emit) { w.op.Flush(emit) }
