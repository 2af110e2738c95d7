package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"streampca/internal/core"
	"streampca/internal/mat"
	"streampca/internal/stream"
)

// testEigensystem builds a small valid eigensystem for snapshot payloads.
func testEigensystem(d, k int) *core.Eigensystem {
	vecs := make([]float64, d*k)
	for i := range vecs {
		vecs[i] = float64(i%7) * 0.25
	}
	mean := make([]float64, d)
	vals := make([]float64, k)
	for i := range mean {
		mean[i] = float64(i) * 0.5
	}
	for i := range vals {
		vals[i] = float64(k - i)
	}
	return &core.Eigensystem{
		Mean: mean, Values: vals, Vectors: mat.NewDenseData(d, k, vecs),
		Sigma2: 0.5, SumU: 10, SumV: 9, SumQ: 8, Count: 123,
	}
}

// contiguousFrame builds a frame whose tuple vectors are consecutive slots
// of one backing buffer — the transport-pool layout the zero-copy path
// recognizes.
func contiguousFrame(baseSeq int64, count, dim int) stream.Frame {
	buf := make([]float64, count*dim)
	for i := range buf {
		buf[i] = math.Sqrt(float64(i)) - 1.5
	}
	tuples := make([]stream.Tuple, count)
	for i := range tuples {
		tuples[i] = stream.Tuple{
			Seq: baseSeq + int64(i),
			Vec: buf[i*dim : (i+1)*dim : (i+1)*dim],
		}
	}
	return stream.Frame{Seq: baseSeq, Tuples: tuples}
}

// frameOfOne is the unbatched transport's message: one one-bin observation.
func frameOfOne(seq int64, v float64) stream.Frame {
	return stream.Frame{Seq: seq, Tuples: []stream.Tuple{{Seq: seq, Vec: []float64{v}}}}
}

func roundTrip(t *testing.T, msg stream.Message, pool *stream.FramePool) stream.Message {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, false)
	if err := enc.Encode(msg); err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	dec := NewDecoder(&buf, pool, 0)
	out, err := dec.Decode()
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return out
}

func sameTuples(t *testing.T, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tuple count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("tuple %d seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		if !reflect.DeepEqual(got[i].Vec, want[i].Vec) {
			t.Fatalf("tuple %d vector mismatch", i)
		}
		if !reflect.DeepEqual(got[i].Mask, want[i].Mask) {
			t.Fatalf("tuple %d mask mismatch", i)
		}
	}
}

func TestFrameRoundTripContiguous(t *testing.T) {
	f := contiguousFrame(100, 8, 5)
	got := roundTrip(t, f, nil).(stream.Frame)
	if got.Seq != 100 {
		t.Fatalf("frame seq %d", got.Seq)
	}
	sameTuples(t, got.Tuples, f.Tuples)
}

func TestFrameRoundTripPooled(t *testing.T) {
	pool := stream.NewFramePool(5, 8)
	f := contiguousFrame(7, 8, 5)
	got := roundTrip(t, f, pool).(stream.Frame)
	sameTuples(t, got.Tuples, f.Tuples)
	if got.Release == nil {
		t.Fatal("pooled frame must carry a Release")
	}
	got.Release()
	// The recycled store must serve the next frame without corruption.
	f2 := contiguousFrame(50, 4, 5)
	got2 := roundTrip(t, f2, pool).(stream.Frame)
	sameTuples(t, got2.Tuples, f2.Tuples)
}

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops a random share of Puts (so Gets allocate).
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestRecvPoolCycleAllocatesNothing: at steady state a receive pool's whole
// trip — decode a dense frame of one into a pooled store, hand its Release to
// the consumer, Release — allocates nothing. Batch 0 is floored at 1, so a
// worker pools frames of one too.
func TestRecvPoolCycleAllocatesNothing(t *testing.T) {
	rp := NewRecvPool(3, 0)
	if rp == nil {
		t.Fatal("a batch-0 receive pool must pool frames of one")
	}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, false).Encode(contiguousFrame(9, 1, 3)); err != nil {
		t.Fatal(err)
	}
	msg := buf.Bytes()
	if raceBuild() {
		t.Skip("the race detector's sync.Pool drops Puts")
	}
	dec := NewDecoder(&replayReader{b: msg[headerLen:]}, rp, 0)
	n := len(msg) - headerLen
	allocs := testing.AllocsPerRun(100, func() {
		f, err := dec.decodeFrame(0, n)
		if err != nil || f.Release == nil || f.Seq != 9 || len(f.Tuples) != 1 {
			t.Fatalf("decode: %v, frame %+v", err, f)
		}
		releaseHandoff = f.Release
		releaseHandoff()
	})
	if allocs != 0 {
		t.Fatalf("pooled decode → Release allocates %v per frame, want 0", allocs)
	}
}

// releaseHandoff stands in for the goroutine a frame's Release escapes to.
var releaseHandoff func()

// replayReader serves its bytes over and over: a socket that keeps
// delivering the same message.
type replayReader struct {
	b   []byte
	off int
}

func (r *replayReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestMaskedFrameDecodesPooled: a masked frame that fits the receive pool
// decodes into a pooled store like a dense one — the same rows and masks as
// the unpooled decode, a Release, and a steady-state decode → Release trip
// that allocates nothing (Decode's boxing of the frame into a Message is
// outside the frame path).
func TestMaskedFrameDecodesPooled(t *testing.T) {
	f := mixedMaskFrame()
	var buf bytes.Buffer
	if err := NewEncoder(&buf, false).Encode(f); err != nil {
		t.Fatal(err)
	}
	msg := buf.Bytes()
	want := roundTrip(t, f, nil).(stream.Frame)
	pool := stream.NewFramePool(3, 4)
	got := roundTrip(t, f, pool).(stream.Frame)
	if got.Release == nil {
		t.Fatal("a masked frame that fits the pool must decode pooled")
	}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, tp := range got.Tuples {
		w := want.Tuples[i]
		if tp.Seq != w.Seq || !slices.EqualFunc(tp.Vec, w.Vec, bits) || !slices.Equal(tp.Mask, w.Mask) {
			t.Fatalf("tuple %d: pooled decode %+v, unpooled %+v", i, tp, w)
		}
	}
	got.Release()
	if raceBuild() {
		t.Skip("the race detector's sync.Pool drops Puts")
	}
	dec := NewDecoder(&replayReader{b: msg[headerLen:]}, pool, 0)
	n := len(msg) - headerLen
	allocs := testing.AllocsPerRun(100, func() {
		fr, err := dec.decodeFrame(flagMask, n)
		if err != nil || fr.Release == nil {
			t.Fatalf("decode: %v, pooled %v", err, fr.Release != nil)
		}
		fr.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled masked decode → Release allocates %v per frame, want 0", allocs)
	}
}

func TestFrameRoundTripNonContiguous(t *testing.T) {
	// Per-tuple allocations: still dense-encodable, via the gather path.
	tuples := make([]stream.Tuple, 4)
	for i := range tuples {
		v := []float64{float64(i), float64(i) * 2, float64(i) * 3}
		tuples[i] = stream.Tuple{Seq: 20 + int64(i), Vec: v}
	}
	f := stream.Frame{Seq: 20, Tuples: tuples}
	got := roundTrip(t, f, nil).(stream.Frame)
	sameTuples(t, got.Tuples, f.Tuples)
}

func TestFrameRoundTripMasked(t *testing.T) {
	f := contiguousFrame(0, 3, 4)
	masks := make([]bool, 3*4)
	for i := range f.Tuples {
		m := masks[i*4 : (i+1)*4 : (i+1)*4]
		m[i%4] = true
		f.Tuples[i].Mask = m
		f.Tuples[i].Vec[i%4] = math.NaN()
	}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, false).Encode(f); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(&buf, nil, 0).Decode()
	if err != nil {
		t.Fatal(err)
	}
	gf := got.(stream.Frame)
	if len(gf.Tuples) != 3 {
		t.Fatalf("got %d tuples", len(gf.Tuples))
	}
	for i, tp := range gf.Tuples {
		if !reflect.DeepEqual(tp.Mask, f.Tuples[i].Mask) {
			t.Fatalf("tuple %d mask mismatch: %v vs %v", i, tp.Mask, f.Tuples[i].Mask)
		}
		if !math.IsNaN(tp.Vec[i%4]) {
			t.Fatalf("tuple %d lost its NaN gap", i)
		}
	}
}

// mixedMaskFrame is what every frame of a gappy survey looks like: complete
// rows (nil mask) beside gappy ones.
func mixedMaskFrame() stream.Frame {
	f := contiguousFrame(30, 4, 3)
	f.Tuples[1].Mask = []bool{true, false, true}
	f.Tuples[1].Vec[1] = math.NaN()
	f.Tuples[3].Mask = []bool{false, true, true}
	f.Tuples[3].Vec[0] = math.NaN()
	return f
}

// TestFrameRoundTripMixedMasks pins that a frame mixing complete and gappy
// rows keeps its batching on the wire: exactly one KindFrame message, the
// gappy rows' masks intact and the complete rows all-observed.
func TestFrameRoundTripMixedMasks(t *testing.T) {
	f := mixedMaskFrame()
	var buf bytes.Buffer
	if err := NewEncoder(&buf, false).Encode(f); err != nil {
		t.Fatal(err)
	}
	if k := Kind(buf.Bytes()[2]); k != KindFrame {
		t.Fatalf("first message is kind %d, want one KindFrame", k)
	}
	dec := NewDecoder(&buf, nil, 0)
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	gf, ok := got.(stream.Frame)
	if !ok || len(gf.Tuples) != len(f.Tuples) {
		t.Fatalf("decoded %T with %d tuples, want a %d-tuple frame", got, len(gf.Tuples), len(f.Tuples))
	}
	for i, tp := range gf.Tuples {
		want := f.Tuples[i].Mask
		if want == nil {
			want = []bool{true, true, true}
		}
		if tp.Seq != f.Tuples[i].Seq || !reflect.DeepEqual(tp.Mask, want) {
			t.Fatalf("tuple %d: seq %d mask %v, want seq %d mask %v", i, tp.Seq, tp.Mask, f.Tuples[i].Seq, want)
		}
		for j, v := range tp.Vec {
			if w := f.Tuples[i].Vec[j]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
				t.Fatalf("tuple %d bin %d: %v, want %v", i, j, v, w)
			}
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("trailing message after the frame: %v", err)
	}
}

// TestIrregularFrameIsAnAssemblyError: a frame the dense layout cannot carry
// — empty, ragged rows or masks, a sequence gap — fails to assemble and
// leaves the pending batch untouched, so the edge abandons and counts exactly
// that message.
func TestIrregularFrameIsAnAssemblyError(t *testing.T) {
	good := contiguousFrame(0, 2, 2)
	ragged := contiguousFrame(0, 2, 2)
	ragged.Tuples[1].Vec = []float64{3}
	shortMask := contiguousFrame(0, 2, 2)
	shortMask.Tuples[0].Mask = []bool{true}
	gap := contiguousFrame(0, 2, 2)
	gap.Tuples[1].Seq = 5
	for name, f := range map[string]stream.Frame{
		"empty": {}, "ragged rows": ragged, "short mask": shortMask, "sequence gap": gap,
	} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, false)
		if err := enc.Append(good); err != nil {
			t.Fatal(err)
		}
		if err := enc.Append(f); err == nil {
			t.Fatalf("%s: irregular frame assembled", name)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := NewDecoder(&buf, nil, 0).Decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameTuples(t, got.(stream.Frame).Tuples, good.Tuples)
		if buf.Len() != 0 {
			t.Fatalf("%s: %d bytes of the irregular frame reached the writer", name, buf.Len())
		}
	}
}

func TestControlRoundTrip(t *testing.T) {
	c := stream.Control{Round: 9, Sender: 2, Receivers: []int{0, 1, 3}}
	got := roundTrip(t, c, nil).(stream.Control)
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("got %+v, want %+v", got, c)
	}
	// Empty receiver list survives too.
	c2 := stream.Control{Round: 1, Sender: 0}
	got2 := roundTrip(t, c2, nil).(stream.Control)
	if got2.Round != 1 || len(got2.Receivers) != 0 {
		t.Fatalf("got %+v", got2)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	es := testEigensystem(6, 2)
	s := stream.Snapshot{Round: 3, From: 1, To: 2, State: es}
	got := roundTrip(t, s, nil).(stream.Snapshot)
	if got.Round != 3 || got.From != 1 || got.To != 2 {
		t.Fatalf("envelope mismatch: %+v", got)
	}
	ges := got.State.(*core.Eigensystem)
	if ges.Count != es.Count || ges.Sigma2 != es.Sigma2 {
		t.Fatal("eigensystem scalars lost")
	}
	if !reflect.DeepEqual(ges.Mean, es.Mean) || !reflect.DeepEqual(ges.Values, es.Values) {
		t.Fatal("eigensystem payload lost")
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := EngineReport{
		Engine: 3, Processed: 1000, Outliers: 17, SnapshotsSent: 4,
		MergesApplied: 6, Restarts: 1, ResumedFromCheckpoint: true, Final: testEigensystem(4, 2),
	}
	got := roundTrip(t, r, nil).(EngineReport)
	if got.Engine != 3 || got.Processed != 1000 || got.Outliers != 17 ||
		got.SnapshotsSent != 4 || got.MergesApplied != 6 || got.Restarts != 1 || !got.ResumedFromCheckpoint {
		t.Fatalf("counter mismatch: %+v", got)
	}
	if got.Final == nil || got.Final.Count != 123 {
		t.Fatal("final eigensystem lost")
	}
	// Uninitialized engine: no final eigensystem.
	r2 := EngineReport{Engine: 0, Processed: 5}
	got2 := roundTrip(t, r2, nil).(EngineReport)
	if got2.Final != nil || got2.Processed != 5 {
		t.Fatalf("got %+v", got2)
	}
}

func TestHelloBarrierEOSRoundTrip(t *testing.T) {
	h := Hello{Engine: -1, Dim: 400, Batch: 64, Epoch: 7}
	if got := roundTrip(t, h, nil).(Hello); got != h {
		t.Fatalf("hello %+v, want %+v", got, h)
	}
	b := stream.Barrier{Epoch: 12}
	if got := roundTrip(t, b, nil).(stream.Barrier); got != b {
		t.Fatalf("barrier %+v", got)
	}
	if _, ok := roundTrip(t, EOS{}, nil).(EOS); !ok {
		t.Fatal("EOS did not round-trip")
	}
}

func TestEncodeRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf, false).Encode("not a message"); err == nil {
		t.Fatal("expected an error for an unencodable message")
	}
	if err := NewEncoder(&buf, false).Encode(stream.Snapshot{State: 42}); err == nil {
		t.Fatal("expected an error for a non-eigensystem snapshot")
	}
}

func TestDecodeRejectsAdversarialHeaders(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":    {0x00, Version, byte(KindEOS), 0, 0, 0, 0, 0},
		"bad version":  {magicByte, 99, byte(KindEOS), 0, 0, 0, 0, 0},
		"unknown kind": {magicByte, Version, 0xEE, 0, 0, 0, 0, 0},
		// A well-formed one-bin observation in the retired kind-2 layout
		// (seq, dim=1, reserved, one float).
		"retired kind 2": {magicByte, Version, 2, 0, 24, 0, 0, 0,
			7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F},
		// A well-formed XOR-delta snapshot in the retired kind-9 layout
		// (round, from, to, base generation 1, one-word base, then one
		// unchanged-run record).
		"retired kind 9": {magicByte, Version, 9, 0, 26, 0, 0, 0,
			1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0x80, 0x01},
		"oversize claim":  {magicByte, Version, byte(KindFrame), 0, 0xFF, 0xFF, 0xFF, 0x7F},
		"eos with bytes":  {magicByte, Version, byte(KindEOS), 0, 4, 0, 0, 0},
		"short hello":     {magicByte, Version, byte(KindHello), 0, 3, 0, 0, 0, 1, 2, 3},
		"truncated frame": {magicByte, Version, byte(KindFrame), 0, 64, 0, 0, 0, 1, 2},
	}
	for name, raw := range cases {
		if _, err := NewDecoder(bytes.NewReader(raw), nil, 0).Decode(); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	// A frame whose claimed shape disagrees with its payload length must be
	// rejected before any shape-sized allocation.
	var buf bytes.Buffer
	hdr := make([]byte, headerLen)
	putHeader(hdr, KindFrame, 0, 16)
	buf.Write(hdr)
	var prefix [16]byte
	prefix[8] = 0xFF // count = huge
	prefix[12] = 0xFF
	buf.Write(prefix[:])
	if _, err := NewDecoder(&buf, nil, 0).Decode(); err == nil {
		t.Fatal("accepted frame with mismatched shape")
	}
}

func TestDecoderBoundedAllocation(t *testing.T) {
	// A header claiming a huge (but under-cap) payload with no bytes behind
	// it must fail from truncation without allocating the claimed size.
	var raw bytes.Buffer
	hdr := make([]byte, headerLen)
	putHeader(hdr, KindSnapshot, 0, 32<<20)
	raw.Write(hdr)
	raw.WriteString("short")
	d := NewDecoder(&raw, nil, 0)
	if _, err := d.Decode(); err == nil {
		t.Fatal("decode of truncated jumbo payload succeeded")
	}
	if cap(d.scratch) > 1<<17 {
		t.Fatalf("decoder allocated %d bytes for a payload that never arrived", cap(d.scratch))
	}
}

func TestDecoderStreamsMultipleMessages(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, false)
	msgs := []stream.Message{
		Hello{Engine: 0, Dim: 3, Batch: 4, Epoch: 1},
		contiguousFrame(0, 4, 3),
		stream.Control{Round: 1, Sender: 0, Receivers: []int{1}},
		stream.Snapshot{Round: 1, From: 0, To: 1, State: testEigensystem(6, 2)},
		EngineReport{Engine: 0, Processed: 4, Final: testEigensystem(3, 1)},
		stream.Barrier{Epoch: 1},
		ClockProbe{Node: 1, T1: 100},
		ClockEcho{T1: 100, T2: 150, T3: 160},
		ObsReport{Node: 1, Seq: 1, Body: []byte(`{}`)},
		EOS{},
	}
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	// One message of every kind the protocol defines, so that a kind the
	// decoder stops handling fails the decode loop below.
	kinds := wireKinds(t, buf.Bytes())
	slices.Sort(kinds)
	if want := []Kind{1, 3, 4, 5, 6, 7, 8, 10, 11, 12}; !slices.Equal(kinds, want) {
		t.Fatalf("encoded kinds %v, want %v", kinds, want)
	}
	dec := NewDecoder(&buf, nil, 0)
	for i := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(msgs[i]) {
			t.Fatalf("message %d: %T, want %T", i, got, msgs[i])
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after the stream: %v, want io.EOF", err)
	}
}
