package wire

import (
	"bytes"
	"testing"

	"streampca/internal/stream"
)

// countingWriter records every Write call and its size.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.buf.Write(b)
}

// coalesceMessages is a representative mixed batch: dense zero-copy frames,
// a masked frame of one, control-plane traffic and a barrier.
func coalesceMessages() []stream.Message {
	return []stream.Message{
		contiguousFrame(0, 4, 3),
		stream.Frame{Seq: 4, Tuples: []stream.Tuple{{Seq: 4, Vec: []float64{1.5, -2.5, 3.25}, Mask: []bool{true, true, false}}}},
		stream.Control{Round: 7, Sender: 1, Receivers: []int{0, 2}},
		contiguousFrame(5, 2, 3),
		stream.Barrier{Epoch: 9},
		stream.Snapshot{Round: 7, From: 1, To: 0, State: testEigensystem(6, 2)},
		EngineReport{Engine: 1, Processed: 42, Final: testEigensystem(6, 2)},
		EOS{},
	}
}

// TestCoalesceOfOneMatchesEncode: a batch of one flushed through
// Append+Flush must be bitwise identical to Encode — coalescing changes
// write granularity, never the byte stream.
func TestCoalesceOfOneMatchesEncode(t *testing.T) {
	for _, msg := range coalesceMessages() {
		var direct, batched bytes.Buffer
		if err := NewEncoder(&direct, false).Encode(msg); err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		enc := NewEncoder(&batched, false)
		if err := enc.Append(msg); err != nil {
			t.Fatalf("append %T: %v", msg, err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatalf("flush %T: %v", msg, err)
		}
		if !bytes.Equal(direct.Bytes(), batched.Bytes()) {
			t.Fatalf("%T: batch-of-one bytes differ from Encode", msg)
		}
	}
}

// TestCoalescedBatchMatchesConcatenation: a multi-message batch flushed as
// one writev must produce exactly the concatenation of the per-message
// encodings.
func TestCoalescedBatchMatchesConcatenation(t *testing.T) {
	msgs := coalesceMessages()
	var sequential bytes.Buffer
	seqEnc := NewEncoder(&sequential, false)
	for _, m := range msgs {
		if err := seqEnc.Encode(m); err != nil {
			t.Fatalf("sequential encode %T: %v", m, err)
		}
	}
	var coalesced bytes.Buffer
	enc := NewEncoder(&coalesced, false)
	for _, m := range msgs {
		if err := enc.Append(m); err != nil {
			t.Fatalf("append %T: %v", m, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if !bytes.Equal(sequential.Bytes(), coalesced.Bytes()) {
		t.Fatal("coalesced byte stream differs from sequential encoding")
	}

	// And the stream must decode back to the same message count.
	dec := NewDecoder(bytes.NewReader(coalesced.Bytes()), nil, 0)
	for i := range msgs {
		if _, err := dec.Decode(); err != nil {
			t.Fatalf("decode message %d of coalesced stream: %v", i, err)
		}
	}
}

// TestCoalescedFlushMergesArenaRuns: a batch of arena-only messages (no
// zero-copy views) must reach the writer as ONE Write call — adjacent
// arena spans merge into a single gather segment, so even the
// non-TCP fallback path (per-buffer sequential writes) pays one syscall.
func TestCoalescedFlushMergesArenaRuns(t *testing.T) {
	w := &countingWriter{}
	enc := NewEncoder(w, false)
	msgs := []stream.Message{
		stream.Control{Round: 1, Sender: 0, Receivers: []int{1}},
		stream.Barrier{Epoch: 2},
		stream.Control{Round: 2, Sender: 1, Receivers: []int{0}},
		EOS{},
	}
	for _, m := range msgs {
		if err := enc.Append(m); err != nil {
			t.Fatalf("append %T: %v", m, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if w.writes != 1 {
		t.Fatalf("arena-only batch took %d writes, want 1", w.writes)
	}
	dec := NewDecoder(bytes.NewReader(w.buf.Bytes()), nil, 0)
	for i := range msgs {
		if _, err := dec.Decode(); err != nil {
			t.Fatalf("decode message %d: %v", i, err)
		}
	}
}

// TestEncoderCountsBytesAndWrites pins the wrote/writes counters the edge
// folds into its syscall-amortization stats.
func TestEncoderCountsBytesAndWrites(t *testing.T) {
	w := &countingWriter{}
	enc := NewEncoder(w, false)
	for _, m := range []stream.Message{
		stream.Control{Round: 1, Sender: 0},
		stream.Barrier{Epoch: 1},
	} {
		if err := enc.Append(m); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	pending := enc.pendingBytes()
	if pending == 0 {
		t.Fatal("pendingBytes reported 0 for an assembled batch")
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if enc.wrote != int64(pending) || int64(w.buf.Len()) != enc.wrote {
		t.Fatalf("wrote=%d, pending=%d, writer saw %d", enc.wrote, pending, w.buf.Len())
	}
	if enc.writes != 1 {
		t.Fatalf("writes=%d, want 1", enc.writes)
	}
	if enc.lastFlushed != pending {
		t.Fatalf("lastFlushed=%d, want %d", enc.lastFlushed, pending)
	}
	if enc.pendingBytes() != 0 {
		t.Fatal("pendingBytes nonzero after Flush")
	}
}

// TestAppendErrorLeavesBatchIntact: a failed Append must roll the pending
// batch back exactly — the earlier messages still flush byte-identically.
func TestAppendErrorLeavesBatchIntact(t *testing.T) {
	good := stream.Control{Round: 3, Sender: 2, Receivers: []int{0, 1}}
	var want bytes.Buffer
	if err := NewEncoder(&want, false).Encode(good); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := NewEncoder(&got, false)
	if err := enc.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := enc.Append(struct{ stream.Message }{}); err == nil {
		t.Fatal("appending an unencodable message succeeded")
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("failed Append corrupted the pending batch")
	}
}
