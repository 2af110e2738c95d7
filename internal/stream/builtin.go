package stream

import (
	"context"
	"math/rand/v2"
	"time"
)

// Split is the multithreaded split operator of §III-A2: it fans a single
// input stream out to n engine streams, sending each message to a uniformly
// random output — the paper's load balancer ("Each new data tuple is being
// sent to a random running PCA engine"). Output ports are 0..N-1. It can run
// as a node or inside a source, which calls Process with its own Emit.
type Split struct {
	// N is the number of output ports.
	N int
	// Seed makes the random choice reproducible.
	Seed uint64

	rng *rand.Rand
}

// Process implements Operator.
func (s *Split) Process(_ int, msg Message, emit Emit) {
	if s.N <= 0 {
		ReleaseFrame(msg)
		return
	}
	if _, ok := msg.(Barrier); ok {
		// Checkpoint barriers are broadcast, not balanced: every engine must
		// see the marker so the cut covers the whole stream prefix.
		for p := 0; p < s.N; p++ {
			emit(p, msg)
		}
		return
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewPCG(s.Seed, 0x5917))
	}
	emit(s.rng.IntN(s.N), msg)
}

// Flush implements Operator.
func (s *Split) Flush(Emit) {}

// Ticker returns a SourceFunc that emits Control-less tick messages (the
// message is the tick index as int64) at the given period until ctx is
// cancelled. It paces the pipeline's periodic sync rounds (§III-B).
func Ticker(period time.Duration) SourceFunc {
	return func(ctx context.Context, emit Emit) error {
		t := time.NewTicker(period)
		defer t.Stop()
		var i int64
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				emit(0, i)
				i++
			}
		}
	}
}

// CounterSource returns a SourceFunc that pulls n items from next and emits
// them as fast as downstream accepts; next is called exactly once per item.
// n < 0 streams forever (until cancellation).
func CounterSource(n int64, next func(seq int64) Message) SourceFunc {
	return func(ctx context.Context, emit Emit) error {
		for seq := int64(0); n < 0 || seq < n; seq++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			emit(0, next(seq))
		}
		return nil
	}
}

// Collect is a sink operator appending every arriving message to a slice.
// Like any operator it runs on one goroutine; read Items after Run returns.
type Collect struct {
	// Items accumulates the received messages in arrival order.
	Items []Message
	// OnItem, when non-nil, is called for each arriving message (e.g. to
	// stop the run after N results via a context cancel).
	OnItem func(msg Message)
	// OnFlush, when non-nil, runs once all the sink's data inputs reached
	// end-of-stream — the reliable termination hook even when an upstream
	// node failed and never produced its result.
	OnFlush func()
}

// Process implements Operator.
func (c *Collect) Process(_ int, msg Message, _ Emit) {
	c.Items = append(c.Items, msg)
	if c.OnItem != nil {
		c.OnItem(msg)
	}
}

// Flush implements Operator.
func (c *Collect) Flush(Emit) {
	if c.OnFlush != nil {
		c.OnFlush()
	}
}
