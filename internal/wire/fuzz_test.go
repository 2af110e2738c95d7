package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"streampca/internal/stream"
)

// encodeAll serializes msgs back-to-back, failing the test on error.
func encodeAll(t testing.TB, msgs ...stream.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, false)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("seed encode %T: %v", m, err)
		}
	}
	return buf.Bytes()
}

// encodeCoalesced serializes msgs through the gathered Append/Flush path,
// one writev for the whole batch.
func encodeCoalesced(t testing.TB, msgs ...stream.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, false)
	for _, m := range msgs {
		if err := enc.Append(m); err != nil {
			t.Fatalf("seed append %T: %v", m, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("seed flush: %v", err)
	}
	return buf.Bytes()
}

// FuzzFrameCodec drives the full decoder with adversarial bytes. The
// decoder must never panic and never allocate more than the bytes that
// actually arrived (the scratch cap assertion), whatever shape the header
// claims. Whenever a message does decode, re-encoding it must succeed —
// anything the decoder accepts is by definition wire-expressible.
func FuzzFrameCodec(f *testing.F) {
	f.Add(encodeAll(f, contiguousFrame(0, 4, 3)))
	f.Add(encodeAll(f, contiguousFrame(9, 1, 1), stream.Barrier{Epoch: 2}, EOS{}))
	f.Add(encodeAll(f, stream.Frame{Seq: 5, Tuples: []stream.Tuple{{Seq: 5, Vec: []float64{1, 2}, Mask: []bool{true, false}}}}))
	f.Add(encodeAll(f, Hello{Engine: -1, Dim: 400, Batch: 64, Epoch: 1}))
	masked := contiguousFrame(0, 2, 3)
	masked.Tuples[0].Mask = []bool{true, false, true}
	masked.Tuples[1].Mask = []bool{false, false, false}
	f.Add(encodeAll(f, masked))
	f.Add(encodeAll(f, mixedMaskFrame()))
	// A traced frame: the flagTrace header bit and the 32-byte pre-block
	// carrying origin node and ingest stamp.
	traced := contiguousFrame(7, 4, 3)
	traced.Trace = stream.Trace{Origin: 2, IngestNs: 1_700_000_000_000_000_000}
	f.Add(encodeAll(f, traced))
	// Adversarial seeds: truncated header, huge claimed payload, wrong magic,
	// a frame whose shape prefix disagrees with the payload length.
	f.Add([]byte{magicByte, Version, byte(KindFrame)})
	f.Add([]byte{magicByte, Version, byte(KindFrame), 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xAA, Version, 2, 0, 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	shapeLie := make([]byte, headerLen+16)
	putHeader(shapeLie, KindFrame, 0, 16)
	binary.LittleEndian.PutUint32(shapeLie[headerLen+8:], 1<<19)
	binary.LittleEndian.PutUint32(shapeLie[headerLen+12:], 1<<20)
	f.Add(shapeLie)
	// A coalesced-path seed: a gathered mixed batch.
	f.Add(encodeCoalesced(f, contiguousFrame(0, 4, 3), stream.Control{Round: 1, Sender: 0},
		contiguousFrame(4, 4, 3), stream.Barrier{Epoch: 1}, EOS{}))
	// Retired kind 9 (XOR-delta snapshots): a same-sender snapshot run, the
	// traffic deltas once compressed, now full snapshots; a hostile kind-9
	// header, rejected as an unknown kind; and a snapshot run with a
	// corrupted tail. The committed delta-* and snapshot-delta-chain corpus
	// files are kind-9 streams from the delta era and must reject the same.
	f.Add(encodeCoalesced(f, perturbedSnapshots(3)...))
	f.Add(retiredDelta(0, 0, 0, 1, 0xFFFFFF8, 0xC1, 0x01))
	chain := encodeCoalesced(f, perturbedSnapshots(2)...)
	chain[len(chain)-1] ^= 0xFF
	f.Add(chain)

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := stream.NewFramePool(3, 4)
		dec := NewDecoder(bytes.NewReader(data), pool, 1<<20)
		enc := NewEncoder(io.Discard, false)
		for {
			msg, err := dec.Decode()
			if err != nil {
				break
			}
			switch m := msg.(type) {
			case stream.Frame:
				if len(m.Tuples) == 0 || len(m.Tuples) > maxTuples {
					t.Fatalf("decoded frame with %d tuples", len(m.Tuples))
				}
				for i := range m.Tuples {
					if len(m.Tuples[i].Vec) > maxWireDim {
						t.Fatalf("decoded tuple dim %d", len(m.Tuples[i].Vec))
					}
				}
				if err := enc.Encode(m); err != nil {
					t.Fatalf("re-encode decoded frame: %v", err)
				}
				if m.Release != nil {
					m.Release()
				}
			case stream.Control, stream.Barrier, stream.Snapshot, Hello, EOS:
				if err := enc.Encode(m); err != nil {
					t.Fatalf("re-encode decoded %T: %v", m, err)
				}
			}
		}
		// The decoder must not have ballooned its scratch past the input
		// plus one growth chunk, no matter what payload sizes were claimed.
		if cap(dec.scratch) > len(data)+(64<<10) {
			t.Fatalf("decoder scratch grew to %d for %d input bytes", cap(dec.scratch), len(data))
		}
	})
}

// FuzzSyncMessage targets the synchronization plane: control commands,
// eigensystem snapshots and engine reports, whose payloads nest the
// internal/core checkpoint format. Decoding must never panic or
// over-allocate, and accepted messages must re-encode.
func FuzzSyncMessage(f *testing.F) {
	es := testEigensystem(5, 2)
	f.Add(encodeAll(f, stream.Control{Round: 3, Sender: 1, Receivers: []int{0, 2, 3}}))
	f.Add(encodeAll(f, stream.Snapshot{Round: 4, From: 2, To: 0, State: es}))
	f.Add(encodeCoalesced(f, stream.Snapshot{Round: 4, From: 2, To: 0, State: es},
		stream.Snapshot{Round: 4, From: 0, To: 2, State: testEigensystem(5, 2)}))
	f.Add(encodeAll(f, EngineReport{Engine: 1, Processed: 10, ResumedFromCheckpoint: true, Final: es}))
	f.Add(encodeAll(f, EngineReport{Engine: 0}))
	// Telemetry-plane kinds: a clock probe/echo pair and an obs report whose
	// body is opaque JSON to the wire layer.
	f.Add(encodeAll(f, ClockProbe{Node: 1, T1: 12345}))
	f.Add(encodeAll(f, ClockEcho{T1: 12345, T2: 12400, T3: 12400}))
	f.Add(encodeAll(f, ObsReport{Node: 2, Seq: 7, Body: []byte(`{"node":"worker-2","seq":7}`)}))
	f.Add(encodeAll(f, ObsReport{Node: 0, Seq: 1}))
	// Hostile obs reports: a header claiming a payload past the body cap,
	// and one whose declared payload is truncated mid-body.
	overCap := make([]byte, headerLen)
	putHeader(overCap, KindObsReport, 0, 16+maxObsBody+1)
	f.Add(overCap)
	short := make([]byte, headerLen+20)
	putHeader(short, KindObsReport, 0, 64)
	f.Add(short)
	// A snapshot whose eigensystem header claims enormous dimensions.
	var lie bytes.Buffer
	hdr := make([]byte, headerLen)
	putHeader(hdr, KindSnapshot, 0, 48)
	lie.Write(hdr)
	lie.Write(make([]byte, 24))
	lie.WriteString("SPCA")
	lie.Write([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x00, 0xFF, 0xFF, 0xFF, 0x00})
	lie.Write(make([]byte, 8))
	f.Add(lie.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data), nil, 1<<20)
		enc := NewEncoder(io.Discard, false)
		for {
			msg, err := dec.Decode()
			if err != nil {
				break
			}
			switch m := msg.(type) {
			case stream.Control:
				if len(m.Receivers) > maxRecv {
					t.Fatalf("decoded control with %d receivers", len(m.Receivers))
				}
				if err := enc.Encode(m); err != nil {
					t.Fatalf("re-encode control: %v", err)
				}
			case stream.Snapshot:
				if err := enc.Encode(m); err != nil {
					t.Fatalf("re-encode snapshot: %v", err)
				}
			case EngineReport:
				if err := enc.Encode(m); err != nil {
					t.Fatalf("re-encode report: %v", err)
				}
			case ClockProbe, ClockEcho, ObsReport:
				if err := enc.Encode(m); err != nil {
					t.Fatalf("re-encode %T: %v", m, err)
				}
			}
		}
		if cap(dec.scratch) > len(data)+(64<<10) {
			t.Fatalf("decoder scratch grew to %d for %d input bytes", cap(dec.scratch), len(data))
		}
	})
}
