package obs

import "sync/atomic"

// Span is one completed unit of operator work: a Process call with its wall
// start time and duration, as exported to the Chrome trace timeline.
type Span struct {
	StartNs int64 // wall-clock Unix nanoseconds
	DurNs   int64
}

// SpanRing retains the most recent spans of one operator in a fixed ring.
// Record is lock free — one atomic slot claim plus two atomic stores — so the
// stream runtime can call it on every Process without contention. A reader
// racing a writer can observe a slot mid-overwrite (start from one span, dur
// from another); that is acceptable for a best-effort trace view and keeps
// the write path free of locks and allocations.
type SpanRing struct {
	start []atomic.Int64
	dur   []atomic.Int64
	next  atomic.Int64
}

// DefaultSpanCap is the per-operator span ring capacity. 2048 spans at
// ~25µs each cover the last ~50ms of a saturated operator — enough to fill a
// trace-viewer screen — while costing 32KiB per operator.
const DefaultSpanCap = 2048

// NewSpanRing returns a ring retaining the last capacity spans
// (DefaultSpanCap when capacity ≤ 0).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRing{
		start: make([]atomic.Int64, capacity),
		dur:   make([]atomic.Int64, capacity),
	}
}

// Record retains one span.
func (r *SpanRing) Record(startNs, durNs int64) {
	i := int(r.next.Add(1)-1) % len(r.start)
	r.start[i].Store(startNs)
	r.dur[i].Store(durNs)
}

// Spans returns the retained spans ordered oldest first. Spans still being
// overwritten may be dropped or torn; callers treat the result as a sample.
func (r *SpanRing) Spans() []Span {
	total := r.next.Load()
	n := int(total)
	first := 0
	if total > int64(len(r.start)) {
		n = len(r.start)
		first = int(total % int64(len(r.start)))
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		j := (first + i) % len(r.start)
		s := Span{StartNs: r.start[j].Load(), DurNs: r.dur[j].Load()}
		if s.StartNs == 0 {
			continue // slot claimed but not yet written
		}
		out = append(out, s)
	}
	return out
}
