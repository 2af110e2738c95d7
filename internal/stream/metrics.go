package stream

import (
	"sync/atomic"
	"time"

	"streampca/internal/obs"
)

// OpMetrics holds a node's live counters. All fields are updated atomically
// by the runtime; read a consistent view via Graph.Metrics.
type OpMetrics struct {
	// Name is the node name the metrics describe.
	Name string

	in        atomic.Int64
	out       atomic.Int64
	tuplesIn  atomic.Int64
	tuplesOut atomic.Int64
	dropped   atomic.Int64
	busyNs    atomic.Int64

	// inst, when non-nil (Graph.Instrument), receives per-Process latency,
	// batch-size and queue-depth samples alongside the counters.
	inst *obs.OpInstruments
}

// tupleWeight is the number of observations a message carries: a Frame
// counts its batched tuples and control-plane messages count zero. It keeps
// the tuple-rate counters meaningful whatever the batch size.
func tupleWeight(msg Message) int64 {
	if f, ok := msg.(Frame); ok {
		return int64(len(f.Tuples))
	}
	return 0
}

// MetricsSnapshot is a point-in-time copy of a node's counters — the
// per-operator profile the paper reads off InfoSphere's profiler (§III-D).
type MetricsSnapshot struct {
	// Name is the node name.
	Name string
	// In and Out count messages consumed and produced. Under micro-batched
	// transport one message may be a whole Frame, so these measure channel
	// traffic, not observation throughput.
	In, Out int64
	// TuplesIn and TuplesOut count observations: frames weigh as their
	// batch size, control messages as zero. These are the throughput
	// numbers batching is meant to improve.
	TuplesIn, TuplesOut int64
	// Dropped counts messages this node lost: full loop edges, discards by
	// a fault-injection Tap on an outgoing edge, and messages delivered to
	// the node while it was failed.
	Dropped int64
	// Busy is the cumulative time spent delivering messages and flushing:
	// each delivery counts from its dequeue to Process's return, so a
	// dequeue that did not block is included and a blocked wait for input
	// is not, and neither is a blocked wait for room on a full data edge
	// downstream (backpressure).
	Busy time.Duration
	// QueueLen is the current backlog of the node's input queue at snapshot
	// time. Zero for sources and when the graph is not running.
	QueueLen int
}

func (m *OpMetrics) snapshot(queueLen int) MetricsSnapshot {
	// Output counters are loaded before input counters: every emit follows
	// its input's increment, so this order keeps Out ≤ In (and TuplesOut ≤
	// TuplesIn) in every live snapshot even while the node is mid-delivery.
	// The reverse order could observe an emit whose input load already
	// happened, reporting more output than input.
	out := m.out.Load()
	tuplesOut := m.tuplesOut.Load()
	return MetricsSnapshot{
		Name:      m.Name,
		In:        m.in.Load(),
		Out:       out,
		TuplesIn:  m.tuplesIn.Load(),
		TuplesOut: tuplesOut,
		Dropped:   m.dropped.Load(),
		Busy:      time.Duration(m.busyNs.Load()),
		QueueLen:  queueLen,
	}
}
