package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"streampca/internal/core"
	"streampca/internal/stream"
)

// The encoder once XOR-delta-encoded a sender's snapshot against its
// previous one as wire kind 9. That kind is retired: every snapshot now goes
// out in full as KindSnapshot, and value 9 decodes as an unknown kind. The
// tests below keep the delta-era scenarios — snapshot chains, interleaved
// senders, shape changes, baseless and hostile deltas — and pin what the
// one-kind transport does with each.

// retiredDeltaKind is the value the XOR-delta snapshot kind used to carry.
const retiredDeltaKind Kind = 9

// retiredDeltaHeadLen is the fixed head of a kind-9 payload: round, from,
// to, base generation and base length.
const retiredDeltaHeadLen = 24

// retiredDelta builds a message in the retired kind-9 layout: the fixed
// head followed by run records (0x80 0x01 is one unchanged word).
func retiredDelta(round int64, from, to, gen, baseLen uint32, records ...byte) []byte {
	raw := make([]byte, headerLen+retiredDeltaHeadLen+len(records))
	putHeader(raw, retiredDeltaKind, 0, retiredDeltaHeadLen+len(records))
	p := raw[headerLen:]
	binary.LittleEndian.PutUint64(p, uint64(round))
	binary.LittleEndian.PutUint32(p[8:], from)
	binary.LittleEndian.PutUint32(p[12:], to)
	binary.LittleEndian.PutUint32(p[16:], gen)
	binary.LittleEndian.PutUint32(p[20:], baseLen)
	copy(p[retiredDeltaHeadLen:], records)
	return raw
}

// perturb returns a copy of es with a few low-order wiggles — the shape of
// real eigensystem drift between sync rounds, where most serialized words
// change in their low mantissa bytes or not at all.
func perturb(es *core.Eigensystem, step float64) *core.Eigensystem {
	cp := es.Clone()
	for i := range cp.Mean {
		if i%3 == 0 {
			cp.Mean[i] += step
		}
	}
	for i := range cp.Values {
		cp.Values[i] += step / 2
	}
	cp.Count += 10
	cp.SumU += step
	return cp
}

// perturbedSnapshots yields n same-sender snapshots with tiny drift.
func perturbedSnapshots(n int) []stream.Message {
	es := testEigensystem(6, 2)
	msgs := make([]stream.Message, 0, n)
	for round := 0; round < n; round++ {
		msgs = append(msgs, stream.Snapshot{Round: int64(round), From: 1, To: 0, State: es})
		es = perturb(es, 1e-9)
	}
	return msgs
}

// wireKinds parses a raw byte stream into its message kinds without
// decoding payloads.
func wireKinds(t *testing.T, raw []byte) []Kind {
	t.Helper()
	var kinds []Kind
	for off := 0; off < len(raw); {
		if raw[off] != magicByte {
			t.Fatalf("bad magic at offset %d", off)
		}
		kinds = append(kinds, Kind(raw[off+2]))
		n := int(binary.LittleEndian.Uint32(raw[off+4 : off+8]))
		off += headerLen + n
	}
	return kinds
}

// allFull fails the test unless every message in raw is a full snapshot.
func allFull(t *testing.T, raw []byte) {
	t.Helper()
	for i, k := range wireKinds(t, raw) {
		if k != KindSnapshot {
			t.Fatalf("snapshot %d went out as kind %d, want full snapshot", i, k)
		}
	}
}

// roundTripsWhole fails the test unless every snapshot in msgs goes out in
// full and decodes bitwise equal, whatever traffic the delta transport once
// compressed or fell back on. coalesced gathers msgs into one flush.
func roundTripsWhole(t *testing.T, msgs []stream.Message, coalesced bool) {
	t.Helper()
	raw := encodeAll(t, msgs...)
	if coalesced {
		raw = encodeCoalesced(t, msgs...)
	}
	if kinds := wireKinds(t, raw); len(kinds) != len(msgs) {
		t.Fatalf("kinds %v, want %d messages", kinds, len(msgs))
	}
	allFull(t, raw)
	dec := NewDecoder(bytes.NewReader(raw), nil, 0)
	for i, want := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d not bitwise-equal after decode", i)
		}
	}
}

// TestSnapshotDeltaRoundTrip: consecutive snapshots of the same sender —
// the traffic deltas once compressed — each go out as a full snapshot and
// decode bitwise equal.
func TestSnapshotDeltaRoundTrip(t *testing.T) {
	roundTripsWhole(t, perturbedSnapshots(5), false)
}

// TestSnapshotDeltaPerSenderChains: interleaved senders, gathered into one
// flush, each decode to exactly what was sent.
func TestSnapshotDeltaPerSenderChains(t *testing.T) {
	var msgs []stream.Message
	a, b := testEigensystem(8, 2), testEigensystem(10, 2)
	for round := 0; round < 3; round++ {
		msgs = append(msgs,
			stream.Snapshot{Round: int64(round), From: 0, To: 1, State: a},
			stream.Snapshot{Round: int64(round), From: 1, To: 0, State: b})
		a, b = perturb(a, 1e-9), perturb(b, 2e-9)
	}
	roundTripsWhole(t, msgs, true)
}

// TestSnapshotDeltaShapeChangeFallsBack: a sender whose eigensystem changes
// shape between rounds sends each shape in full, and each decodes.
func TestSnapshotDeltaShapeChangeFallsBack(t *testing.T) {
	var msgs []stream.Message
	for round, es := range []*core.Eigensystem{
		testEigensystem(8, 2), testEigensystem(16, 3), perturb(testEigensystem(16, 3), 1e-9),
	} {
		msgs = append(msgs, stream.Snapshot{Round: int64(round), From: 0, To: 1, State: es})
	}
	roundTripsWhole(t, msgs, false)
}

// TestSnapshotDeltaNoGainFallsBack: uncorrelated snapshots, whose every
// serialized word moves, go out in full like any other.
func TestSnapshotDeltaNoGainFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var msgs []stream.Message
	for round := 0; round < 3; round++ {
		es := testEigensystem(12, 3)
		for i := range es.Mean {
			es.Mean[i] = rng.NormFloat64() * 1e3
		}
		for i := range es.Values {
			es.Values[i] = rng.ExpFloat64() + 1
		}
		es.Sigma2 = rng.Float64()
		es.SumU, es.SumV, es.SumQ = rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		es.Count = rng.Int63()
		data := es.Vectors.Data()
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		msgs = append(msgs, stream.Snapshot{Round: int64(round), From: 0, To: 1, State: es})
	}
	roundTripsWhole(t, msgs, false)
}

// TestEncoderIgnoresRetiredSingleFlag: NewEncoder ignores its second
// argument, so an encoder built with true (the retired single-write mode)
// writes the same whole snapshots, byte for byte, as one built with false.
func TestEncoderIgnoresRetiredSingleFlag(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, true)
	es := testEigensystem(8, 2)
	for round := 0; round < 3; round++ {
		if err := enc.Encode(stream.Snapshot{Round: int64(round), From: 0, To: 1, State: es}); err != nil {
			t.Fatal(err)
		}
		es = perturb(es, 1e-9)
	}
	allFull(t, buf.Bytes())
	var ref bytes.Buffer
	es = testEigensystem(8, 2)
	for round := 0; round < 3; round++ {
		ref.Write(encodeAll(t, stream.Snapshot{Round: int64(round), From: 0, To: 1, State: es}))
		es = perturb(es, 1e-9)
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Fatal("encoder built with true wrote different bytes from one built with false")
	}
}

// TestRetiredKind9Rejected: a well-formed kind-9 delta is a protocol error
// whether or not its base snapshot arrived first.
func TestRetiredKind9Rejected(t *testing.T) {
	es := testEigensystem(8, 2)
	full := encodeAll(t, stream.Snapshot{Round: 0, From: 0, To: 1, State: es})
	baseLen := uint32(len(full) - headerLen) // the base snapshot's payload
	delta := retiredDelta(1, 0, 1, 1, baseLen, 0x80, byte(baseLen/8))

	dec := NewDecoder(bytes.NewReader(delta), nil, 0)
	if _, err := dec.Decode(); err == nil {
		t.Fatal("baseless delta decoded")
	}
	dec = NewDecoder(bytes.NewReader(append(full, delta...)), nil, 0)
	if _, err := dec.Decode(); err != nil {
		t.Fatalf("base snapshot: %v", err)
	}
	if _, err := dec.Decode(); err == nil {
		t.Fatal("delta after its base decoded")
	}
}

// TestRetiredKind9HostileInputRejected: truncated, garbage-tailed and
// malformed kind-9 payloads after a good snapshot must error without
// panicking, and must not disturb the snapshot ahead of them.
func TestRetiredKind9HostileInputRejected(t *testing.T) {
	es := testEigensystem(8, 2)
	full := encodeAll(t, stream.Snapshot{Round: 0, From: 0, To: 1, State: es})
	baseLen := uint32(len(full) - headerLen) // the base snapshot's payload
	good := func() []byte { return retiredDelta(1, 0, 1, 1, baseLen, 0x80, byte(baseLen/8)) }

	mutate := func(name string, delta []byte) {
		raw := append(append([]byte(nil), full...), delta...)
		dec := NewDecoder(bytes.NewReader(raw), nil, 0)
		msg, err := dec.Decode()
		if err != nil {
			t.Fatalf("%s: base snapshot failed: %v", name, err)
		}
		if !reflect.DeepEqual(msg.(stream.Snapshot).State, es) {
			t.Fatalf("%s: base snapshot mismatch", name)
		}
		if _, err := dec.Decode(); err == nil {
			t.Fatalf("%s: hostile delta decoded", name)
		}
	}
	mutate("well-formed", good())
	truncated := good()
	binary.LittleEndian.PutUint32(truncated[4:], uint32(len(truncated)-headerLen-1))
	mutate("truncated-delta", truncated[:len(truncated)-1])
	garbage := good()
	binary.LittleEndian.PutUint32(garbage[4:], uint32(len(garbage)-headerLen+2))
	mutate("garbage-tail", append(garbage, 0x80, 0x01))
	mutate("bad-ctrl", retiredDelta(1, 0, 1, 1, baseLen, 0xC1, 0x01))
	mutate("gen-mismatch", retiredDelta(1, 0, 1, 99, baseLen, 0x80, byte(baseLen/8)))
	mutate("len-mismatch", retiredDelta(1, 0, 1, 1, 16, 0x80, 0x02))
	mutate("header-only", retiredDelta(1, 0, 1, 1, 0xFFFFFF8))
}
