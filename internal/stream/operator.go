package stream

import "context"

// Emit delivers a message to the given output port of the running operator.
// Emitting to an unconnected port is a silent no-op (matching SPL, where
// unused output streams may be left dangling).
type Emit func(port int, msg Message)

// Operator is a stateful stream transformer. Implementations are invoked
// from a single goroutine (their own), so they need no
// internal locking — the same guarantee InfoSphere gives a non-reentrant
// SPL operator.
type Operator interface {
	// Process handles one message arriving on input port. It may emit any
	// number of messages on any output ports.
	Process(port int, msg Message, emit Emit)
	// Flush runs once after every (non-loop) input has reached
	// end-of-stream, before the operator's outputs are closed.
	Flush(emit Emit)
}

// SourceFunc drives a source node: it emits messages until the stream is
// exhausted or ctx is cancelled, then returns. A non-nil error is surfaced
// by Graph.Run.
type SourceFunc func(ctx context.Context, emit Emit) error

// FuncOperator adapts a plain function (plus optional flush) to Operator.
type FuncOperator struct {
	// OnMessage handles each arriving message.
	OnMessage func(port int, msg Message, emit Emit)
	// OnFlush, when non-nil, runs at end-of-stream.
	OnFlush func(emit Emit)
}

// Process implements Operator.
func (f *FuncOperator) Process(port int, msg Message, emit Emit) {
	if f.OnMessage != nil {
		f.OnMessage(port, msg, emit)
	}
}

// Flush implements Operator.
func (f *FuncOperator) Flush(emit Emit) {
	if f.OnFlush != nil {
		f.OnFlush(emit)
	}
}
