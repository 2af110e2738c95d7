// Package stream is a typed-tuple dataflow engine standing in for IBM
// InfoSphere Streams (§III). It provides the primitives the paper's
// application is built from: operators connected by buffered streams, a
// multithreaded split, throttled control signals and network connectors.
//
// Execution model: every operator runs on its own goroutine and drains its
// own input queue; sources run their own goroutines too. InfoSphere's
// operator fusion (several operators on one processing element, exchanging
// data by direct call) has one case: a Split, which only routes and is not
// CPU-bound, may run inside its source by direct call to Process instead of
// as a node. Other operators are not fused: an in-process edge already hands
// over a message in memory, and putting CPU-bound operators on one goroutine
// only serializes them. Data edges propagate end-of-stream; loop edges
// (cycles, used by the synchronization fabric) never block — a full loop
// buffer drops the message and counts it, mirroring the droppable nature of
// sync signals and guaranteeing liveness of cyclic graphs.
package stream

// Message is anything that flows on a stream. The application-level message
// kinds are defined here; operators type-switch on them exactly as SPL
// operators dispatch on tuple types.
type Message any

// Tuple is one data observation: a row of a Frame, which is how every
// observation travels from a source toward the analysis engines.
type Tuple struct {
	// Seq is a strictly increasing sequence number stamped by the source.
	Seq int64
	// Vec is the observation vector (may contain NaN in masked bins).
	Vec []float64
	// Mask is nil for complete observations, else true = observed.
	Mask []bool
}

// Trace is the compact cross-process trace context stamped on a frame at
// ingest. It rides the frame through wire edges and worker observe so
// the far end can compute end-to-end tuple latency (ingest to outlier
// decision) and attribute a frame to its origin lane in a merged cluster
// trace. The zero value means "no trace context"; transports omit it on the
// wire in that case, so untraced deployments pay nothing.
type Trace struct {
	// Origin identifies the stamping process (node ID in a cluster; 0 is
	// the coordinator/single-process origin).
	Origin uint32
	// IngestNs is the origin's wall clock (UnixNano) when the frame opened.
	// Wall clock, not monotonic: the consumer lives in another process and
	// aligns clocks via the wire layer's offset estimation.
	IngestNs int64
}

// Frame is the data message: a micro-batch of tuples moving as one. The
// source accumulates up to a configured batch size (bounded by a flush
// deadline so a slow stream still has bounded tail latency) and every edge
// hop, split decision and operator dispatch is then paid once per frame
// instead of once per tuple; unbatched transport sends frames of one.
// Operators iterate Tuples in place; Split forwards the frame whole, so a
// batch never straddles engines.
//
// Ownership: a frame belongs to the receiving operator once delivered. If
// Release is non-nil the consumer must call it exactly once when finished
// with the frame and every slice reachable from it — the transport recycles
// the backing storage. A nil Release means the frame is garbage-collected
// ordinarily: its FrameStore is unpooled — a wire frame that does not fit
// the receive pool, or a fault injector's copy of a duplicated frame.
type Frame struct {
	// Seq is the sequence number of the first tuple in the frame.
	Seq int64
	// Tuples are the batched observations, in stream order.
	Tuples []Tuple
	// Trace is the ingest-time trace context; zero when unstamped.
	Trace Trace
	// Release returns the frame's storage to the transport pool, if set.
	Release func()
}

// ReleaseFrame releases msg if it is a Frame with a Release: the call for
// every site that drops a message instead of delivering it.
func ReleaseFrame(msg Message) {
	if f, ok := msg.(Frame); ok && f.Release != nil {
		f.Release()
	}
}

// Barrier is a checkpoint-barrier marker injected into the data stream
// (Chandy–Lamport style): Split broadcasts it to every output port so each
// engine observes the same stream prefix before checkpointing. Engines treat
// it as a zero-weight control message and cut a checkpoint on arrival;
// remote edges forward it through reconnects so a multi-process deployment
// can take a consistent cut without pausing the stream.
type Barrier struct {
	// Epoch numbers the barrier wave (strictly increasing per source).
	Epoch int64
}

// Control is a synchronization command from the sync controller to an
// analysis engine (§III-B: "the PCA component shares the current
// eigensystem state with a set of other instances defined in the control
// message").
type Control struct {
	// Round numbers the synchronization wave.
	Round int64
	// Sender is the engine index asked to share its state.
	Sender int
	// Receivers are the engine indices that should absorb it.
	Receivers []int
}

// Snapshot carries an engine's shared state toward the receivers named in
// the triggering Control message. State is opaque to the transport layer.
type Snapshot struct {
	// Round echoes the Control round that triggered the share.
	Round int64
	// From is the sending engine index.
	From int
	// To is the receiving engine index (connectors route on it).
	To int
	// State is the shared eigensystem (a *core.Eigensystem in the
	// application; kept as Message to keep the engine application-neutral).
	State Message
}
