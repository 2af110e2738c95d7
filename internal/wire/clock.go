package wire

import "sync/atomic"

// Clock-offset estimation for the distributed observability plane.
//
// Workers stamp frames with their own wall clock at ingest; the coordinator
// merges traces and computes end-to-end latency on its clock. To place a
// worker's timestamps on the coordinator timeline, each worker runs the
// classic NTP four-timestamp exchange over its existing edge: it sends a
// ClockProbe carrying T1 (worker transmit), the coordinator echoes a
// ClockEcho carrying T1, T2 (coordinator receive) and T3 (coordinator
// transmit), and the worker notes T4 (worker receive). Then
//
//	offset θ = ((T2-T1) + (T3-T4)) / 2   (coordinator clock − worker clock)
//	rtt      = (T4-T1) − (T3-T2)
//
// and the estimation error is bounded by rtt/2 (the true offset lies within
// ±rtt/2 of θ, assuming path symmetry only for the point estimate, not the
// bound). ClockState keeps the sample with the smallest rtt seen — the
// tightest bound — exactly as NTP's clock filter prefers minimum-delay
// samples. Probes and echoes ride the droppable sync plane: a lost sample
// costs nothing but a retry at the next report tick.

// ClockProbe is a worker's clock sample request.
type ClockProbe struct {
	// Node identifies the probing worker, so the coordinator can echo the
	// probe down the matching loop edge.
	Node int
	// T1 is the worker's wall clock (UnixNano) at transmit.
	T1 int64
}

// ClockEcho is the coordinator's reply to a ClockProbe.
type ClockEcho struct {
	// T1 echoes the probe's transmit timestamp.
	T1 int64
	// T2 is the coordinator's wall clock (UnixNano) when the probe arrived.
	T2 int64
	// T3 is the coordinator's wall clock (UnixNano) when the echo left.
	T3 int64
}

// ClockState is a worker's running clock-offset estimate against the
// coordinator. It is written by the telemetry operator when an echo returns
// and read on the frame-observe hot path to convert end-to-end latencies
// onto one timeline, so all fields are atomics and AddSample/OffsetNs stay
// allocation-free.
type ClockState struct {
	offsetNs atomic.Int64 // θ: coordinator clock − worker clock
	rttNs    atomic.Int64 // rtt of the kept (minimum-delay) sample
}

// AddSample absorbs one completed exchange. It keeps the offset from the
// minimum-rtt sample seen so far: smaller round trip, tighter error bound.
// Samples with non-positive rtt (clock stepped mid-exchange) are dropped.
//
//streampca:noalloc
func (c *ClockState) AddSample(e ClockEcho, t4 int64) {
	rtt := (t4 - e.T1) - (e.T3 - e.T2)
	if rtt <= 0 {
		return
	}
	for {
		best := c.rttNs.Load()
		if best != 0 && rtt >= best {
			return
		}
		if c.rttNs.CompareAndSwap(best, rtt) {
			c.offsetNs.Store(((e.T2 - e.T1) + (e.T3 - t4)) / 2)
			return
		}
	}
}

// OffsetNs returns the current offset estimate θ (coordinator − worker),
// zero before the first sample lands.
//
//streampca:noalloc
func (c *ClockState) OffsetNs() int64 { return c.offsetNs.Load() }

// RTTNs returns the round trip of the kept sample; the offset error bound
// is half of it. Zero before the first sample.
func (c *ClockState) RTTNs() int64 { return c.rttNs.Load() }
