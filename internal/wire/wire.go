// Package wire is the TCP runtime that makes the single-process stream
// graph distributable: the paper's InfoSphere deployment runs the parallel
// PCA engines as distinct processes exchanging eigensystems over a network
// (figs. 6–7), and this package supplies the transport those processes use.
//
// It has three layers:
//
//   - a length-prefixed, versioned binary codec for every stream message
//     kind (codec.go). Micro-batch frames are the hot path: the contiguous
//     B×d buffer the transport pools are already wire-shaped, so on
//     little-endian hosts a dense frame is sent zero-copy (header and float
//     payload gathered into one writev) and received straight into a pooled
//     buffer;
//   - remote edges (edge.go): DialEdge / ListenEdge produce a send half
//     that is a stream.Operator and a receive half that is a
//     stream.SourceFunc, so a graph splices a TCP link exactly where a
//     channel edge used to be. Edges reconnect with seeded exponential
//     backoff, keep tuple-weighted metrics across reconnects, and journal
//     connect/drop/EOS evidence via internal/obs;
//   - seeded connection faults (conn.go): per-message connection resets
//     rolled inside the same gathered writev clean runs use, and timed
//     partitions that fail every dial while open. Message-level drop,
//     duplicate, delay and reorder live in internal/fault, on in-process
//     edges.
//
// The wire protocol never trusts the peer: every decode path validates
// shapes against hard caps and grows buffers only as bytes actually arrive,
// so adversarial input can neither panic the decoder nor make it allocate
// more than the data it really sent (mirroring internal/core's checkpoint
// reader).
package wire

import (
	"streampca/internal/core"
)

// Version is the wire protocol version byte. A peer speaking a different
// version is rejected at decode time — bump it on any incompatible layout
// change.
const Version = 1

// Kind identifies the payload type of one wire message.
type Kind uint8

// The wire message kinds. Values are part of the protocol; append only.
const (
	// KindHello is the connection preamble: each side announces its engine
	// index, data shape and session epoch immediately after connecting.
	KindHello Kind = iota + 1
	// Value 2 is reserved (it once carried a bare tuple); decoders reject
	// it as an unknown kind.
	_
	// KindFrame is the only data message: count×dim float64 payload with
	// consecutive sequence numbers, optionally carrying a mask block. A
	// frame of one is the unbatched transport.
	KindFrame
	// KindControl is a syncctl command (round, sender, receivers).
	KindControl
	// KindSnapshot carries one engine's eigensystem to a named receiver,
	// serialized in the internal/core checkpoint format.
	KindSnapshot
	// KindReport is an engine's end-of-stream report (counters plus the
	// final eigensystem).
	KindReport
	// KindBarrier is a checkpoint-barrier marker flowing with the data.
	KindBarrier
	// KindEOS is the clean end-of-stream frame; the peer stops reading
	// after it.
	KindEOS
	// Value 9 is reserved (it once carried an XOR-delta snapshot); decoders
	// reject it as an unknown kind.
	_
	// KindClockProbe is a worker's NTP-style clock sample request: the
	// worker's wall clock at transmit time, echoed back by the coordinator
	// as a KindClockEcho (clock.go).
	KindClockProbe
	// KindClockEcho is the coordinator's reply to a clock probe: the
	// probe's T1 plus the coordinator's receive/transmit wall clocks, from
	// which the worker derives an offset and its round-trip error bound.
	KindClockEcho
	// KindObsReport is a worker's periodic observability report: a small
	// binary prefix (node, report sequence) plus an opaque body the
	// application layer encodes (the pipeline ships JSON-encoded
	// obs.Report deltas; wire stays application-neutral).
	KindObsReport
)

// Hello is the connection preamble. Epoch lets the receiver tell a
// reconnect of the same process (epoch unchanged) from a restarted peer
// (epoch advanced), which is what resets counters mid-window.
type Hello struct {
	// Engine is the sender's engine index, -1 when it has none (the
	// coordinator side of a data edge).
	Engine int
	// Dim and Batch describe the data shape the sender will use, so the
	// receiver can size its frame pool; zero when the side sends no data.
	Dim, Batch int
	// Epoch counts the sender's sessions: it starts at 1 and advances each
	// time the sender process restarts its wire state from scratch.
	Epoch int64
}

// EngineReport is a worker engine's end-of-stream report — the wire form
// of the pipeline's per-engine statistics. It is wire's own type (not the
// pipeline's) so the protocol layer stays application-neutral, with
// pipeline.EngineStats's fields in the same order so that each converts to
// the other directly.
type EngineReport struct {
	// Engine is the reporting engine index.
	Engine int
	// Processed and Outliers count observations absorbed and flagged.
	Processed, Outliers int64
	// SnapshotsSent and MergesApplied count synchronization activity.
	SnapshotsSent, MergesApplied int64
	// Restarts counts crash recoveries.
	Restarts int64
	// ResumedFromCheckpoint reports whether the latest restart replayed a
	// checkpoint.
	ResumedFromCheckpoint bool
	// Final is the engine's final eigensystem, nil when it never
	// initialized.
	Final *core.Eigensystem
}

// ObsReport is a worker's periodic observability report in wire form. The
// body is opaque to the transport — the pipeline encodes obs.Report deltas
// as JSON — so the protocol layer stays application-neutral, exactly as
// EngineReport keeps engine statistics out of the codec's vocabulary.
type ObsReport struct {
	// Node is the reporting worker's node ID.
	Node int
	// Seq numbers the worker's reports (strictly increasing per session) so
	// the coordinator can count redeliveries and gaps across reconnects.
	Seq int64
	// Body is the application-encoded report payload.
	Body []byte
}

// EOS is the decoded form of the clean end-of-stream frame.
type EOS struct{}
