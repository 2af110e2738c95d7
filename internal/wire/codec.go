package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/stream"
)

// Every wire message is one 8-byte header followed by a payload:
//
//	0      magic 0xD5
//	1      version (Version)
//	2      kind (Kind)
//	3      flags (kind-specific, see flag* constants)
//	4..7   payload length, u32 little-endian
//
// Multi-byte payload fields are little-endian throughout. The dense-frame
// payload is
//
//	baseSeq i64 | count u32 | dim u32 [| origin u32 | rsvd u32 | ingestNs i64]
//	  | count·dim f64 [| count·dim mask u8]
//
// where the bracketed trace extension is present iff flagTrace is set.
//
// which is byte-identical to the transport pool's contiguous B×d buffer on
// little-endian hosts — that identity is what makes the send side zero-copy
// (one writev over the header and the pooled floats) and the receive side a
// single ReadFull into a pooled buffer.
const (
	magicByte = 0xD5
	headerLen = 8

	// flagMask on a KindFrame header marks a trailing mask block.
	flagMask = 1 << 0
	// flagResumed / flagFinal on a KindReport header.
	flagResumed = 1 << 0
	// flagFinal marks a trailing eigensystem block on a KindReport.
	flagFinal = 1 << 1
	// flagTrace on a KindFrame header marks a 16-byte trace-context
	// extension (origin u32 | reserved u32 | ingestNs i64) between the
	// shape prefix and the float payload. Untraced frames omit it, so the
	// pre-trace byte stream is unchanged.
	flagTrace = 1 << 2
)

// Decode-side hard caps: shapes beyond these are protocol errors, rejected
// before any allocation sized from the header. They bound what a hostile
// 8-byte header can demand, exactly like internal/core's checkpoint guards.
const (
	// MaxPayload caps one message's payload (64 MiB — a 1k×8k frame).
	MaxPayload = 64 << 20
	maxWireDim = 1 << 24
	maxTuples  = 1 << 20
	maxRecv    = 1 << 16
)

// putFloatsLE writes src into dst as little-endian float64 bytes — the
// encode path for frames not sent as zero-copy views (big-endian hosts,
// masked frames).
//
//streampca:noalloc
func putFloatsLE(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:8*i+8], math.Float64bits(v))
	}
}

// getFloatsLE fills dst from little-endian float64 bytes.
//
//streampca:noalloc
func getFloatsLE(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i : 8*i+8]))
	}
}

// helloWireLen is the exact on-wire size of a hello message: the handshake
// reads precisely this many bytes off the raw socket so pipelined data
// behind the hello stays for the steady-state decoder.
const helloWireLen = headerLen + 20

// parseHelloPayload decodes a hello's fixed-size payload.
func parseHelloPayload(p []byte) Hello {
	return Hello{
		Engine: int(int32(binary.LittleEndian.Uint32(p[0:]))),
		Dim:    int(binary.LittleEndian.Uint32(p[4:])),
		Batch:  int(binary.LittleEndian.Uint32(p[8:])),
		Epoch:  int64(binary.LittleEndian.Uint64(p[12:])),
	}
}

// parseHello validates one complete raw hello message, header included.
func parseHello(raw []byte) (Hello, error) {
	if len(raw) != helloWireLen || raw[0] != magicByte {
		return Hello{}, errors.New("wire: malformed hello")
	}
	if raw[1] != Version {
		return Hello{}, fmt.Errorf("wire: peer speaks protocol version %d, want %d", raw[1], Version)
	}
	if Kind(raw[2]) != KindHello {
		return Hello{}, fmt.Errorf("wire: peer opened with message kind %d, want hello", raw[2])
	}
	if binary.LittleEndian.Uint32(raw[4:8]) != helloWireLen-headerLen {
		return Hello{}, errors.New("wire: hello payload length mismatch")
	}
	return parseHelloPayload(raw[headerLen:]), nil
}

// putHeader packs one wire header.
//
//streampca:noalloc
func putHeader(dst []byte, kind Kind, flags byte, payloadLen int) {
	dst[0] = magicByte
	dst[1] = Version
	dst[2] = byte(kind)
	dst[3] = flags
	binary.LittleEndian.PutUint32(dst[4:8], uint32(payloadLen))
}

// Encoder serializes stream messages onto one writer. Not safe for
// concurrent use; an edge owns one per connection.
//
// Two usage shapes:
//
//   - Encode(msg): assemble one message and write it immediately — the
//     handshake and compatibility path.
//   - Append(msg)…Append(msg) then Flush(): the coalescing path. Append
//     only assembles (fixed-layout bytes into an arena, dense-frame floats
//     as zero-copy views); Flush hands the whole batch to the kernel as
//     one net.Buffers writev, amortizing the syscall over every message
//     queued behind the first. The byte stream is identical either way —
//     coalescing changes write granularity, never layout.
type Encoder struct {
	w io.Writer
	// arena holds every assembled header/payload byte of the pending
	// batch; parts index into it rather than aliasing it, so arena growth
	// mid-batch never invalidates an earlier part.
	arena []byte
	parts []encPart
	bufs  net.Buffers
	snap  bytes.Buffer
	// wrote/writes count bytes the writer accepted and the write calls
	// that carried them (partial writes included) — the edge's
	// bytes-per-writev signal.
	wrote  int64
	writes int64
	// lastFlushed is how many bytes the last Flush handed to the kernel,
	// valid on error too: the sender uses it to resolve a torn writev to
	// whole delivered messages.
	lastFlushed int
}

// encPart is one gather segment of the pending batch: a span of the arena
// (ext nil) or a zero-copy view of caller-owned float storage.
type encPart struct {
	ext    []byte
	off, n int
}

// NewEncoder returns an encoder writing to w. The bool is ignored: it once
// selected a one-write-per-message mode, and stays only so existing callers
// compile.
func NewEncoder(w io.Writer, _ bool) *Encoder {
	return &Encoder{w: w}
}

// reserve appends an n-byte span to the arena and returns its offset.
func (e *Encoder) reserve(n int) int {
	off := len(e.arena)
	if cap(e.arena) < off+n {
		grown := make([]byte, off, 2*(off+n))
		copy(grown, e.arena)
		e.arena = grown
	}
	e.arena = e.arena[:off+n]
	return off
}

// span records an arena segment as a gather part.
func (e *Encoder) span(off, n int) {
	e.parts = append(e.parts, encPart{off: off, n: n})
}

// view records caller-owned bytes as a zero-copy gather part.
func (e *Encoder) view(b []byte) {
	e.parts = append(e.parts, encPart{ext: b})
}

// Append assembles one message onto the pending batch. Supported kinds:
// stream.Frame, stream.Control, stream.Snapshot (State must
// be a *core.Eigensystem), stream.Barrier, Hello, EngineReport, ClockProbe,
// ClockEcho, ObsReport and EOS.
// Anything else is an error, and on error the batch is exactly as it was
// before the call. Nothing reaches the writer until Flush. Zero-copy frame
// views stay referenced until Flush returns, so callers must not release a
// frame store before then.
func (e *Encoder) Append(msg stream.Message) error {
	m := e.mark()
	if err := e.assemble(msg); err != nil {
		e.rewind(m)
		return err
	}
	return nil
}

// encMark is a position in the pending batch.
type encMark struct{ parts, arena int }

func (e *Encoder) mark() encMark { return encMark{len(e.parts), len(e.arena)} }

// rewind drops everything appended since m from the pending batch.
func (e *Encoder) rewind(m encMark) {
	e.parts = e.parts[:m.parts]
	e.arena = e.arena[:m.arena]
}

// Flush writes the pending batch as one gathered writev and resets the
// assembly state. A no-op when nothing is pending. A flush error tears the
// connection — callers re-assemble on a fresh encoder after reconnecting —
// so the pending state is discarded either way.
func (e *Encoder) Flush() error {
	if len(e.parts) == 0 {
		return nil
	}
	// Arena spans are reserved in order, so consecutive ones are contiguous
	// bytes: merge each run into a single gather segment. A batch with no
	// zero-copy views collapses to one buffer (one plain Write); zero-copy
	// frames keep their float views but share merged prefix runs.
	bufs := e.bufs[:0]
	runStart, runEnd := -1, -1
	for _, p := range e.parts {
		if p.ext != nil {
			if runStart >= 0 {
				bufs = append(bufs, e.arena[runStart:runEnd])
				runStart = -1
			}
			bufs = append(bufs, p.ext)
			continue
		}
		if runStart >= 0 && p.off == runEnd {
			runEnd = p.off + p.n
			continue
		}
		if runStart >= 0 {
			bufs = append(bufs, e.arena[runStart:runEnd])
		}
		runStart, runEnd = p.off, p.off+p.n
	}
	if runStart >= 0 {
		bufs = append(bufs, e.arena[runStart:runEnd])
	}
	var wrote int64
	var err error
	if len(bufs) == 1 {
		var n int
		n, err = e.w.Write(bufs[0])
		wrote = int64(n)
	} else {
		e.bufs = bufs
		wrote, err = e.bufs.WriteTo(e.w)
	}
	// WriteTo consumes its receiver; restore the backing slice and drop
	// the byte views so pooled frame storage is not pinned past the flush.
	for i := range bufs {
		bufs[i] = nil
	}
	e.bufs = bufs[:0]
	e.parts = e.parts[:0]
	e.arena = e.arena[:0]
	e.lastFlushed = int(wrote)
	if wrote > 0 {
		e.wrote += wrote
		e.writes++
	}
	return err
}

// pendingBytes is the byte length of the assembled, unflushed batch — what
// the next Flush will hand to the kernel.
func (e *Encoder) pendingBytes() int {
	n := 0
	for _, p := range e.parts {
		if p.ext != nil {
			n += len(p.ext)
		} else {
			n += p.n
		}
	}
	return n
}

// Encode writes one message immediately: Append plus a single-message
// Flush. The batch-of-one byte stream is identical to a coalesced one.
func (e *Encoder) Encode(msg stream.Message) error {
	if err := e.Append(msg); err != nil {
		return err
	}
	return e.Flush()
}

func (e *Encoder) assemble(msg stream.Message) error {
	switch m := msg.(type) {
	case stream.Frame:
		return e.assembleFrame(m)
	case stream.Control:
		return e.assembleControl(m)
	case stream.Snapshot:
		return e.assembleSnapshot(m)
	case stream.Barrier:
		off := e.reserve(headerLen + 8)
		b := e.arena[off:]
		putHeader(b, KindBarrier, 0, 8)
		binary.LittleEndian.PutUint64(b[headerLen:], uint64(m.Epoch))
		e.span(off, headerLen+8)
		return nil
	case Hello:
		off := e.reserve(helloWireLen)
		b := e.arena[off:]
		putHeader(b, KindHello, 0, 20)
		binary.LittleEndian.PutUint32(b[8:], uint32(int32(m.Engine)))
		binary.LittleEndian.PutUint32(b[12:], uint32(m.Dim))
		binary.LittleEndian.PutUint32(b[16:], uint32(m.Batch))
		binary.LittleEndian.PutUint64(b[20:], uint64(m.Epoch))
		e.span(off, helloWireLen)
		return nil
	case EngineReport:
		return e.assembleReport(m)
	case ClockProbe:
		off := e.reserve(headerLen + 16)
		b := e.arena[off:]
		putHeader(b, KindClockProbe, 0, 16)
		binary.LittleEndian.PutUint32(b[8:], uint32(int32(m.Node)))
		binary.LittleEndian.PutUint32(b[12:], 0)
		binary.LittleEndian.PutUint64(b[16:], uint64(m.T1))
		e.span(off, headerLen+16)
		return nil
	case ClockEcho:
		off := e.reserve(headerLen + 24)
		b := e.arena[off:]
		putHeader(b, KindClockEcho, 0, 24)
		binary.LittleEndian.PutUint64(b[8:], uint64(m.T1))
		binary.LittleEndian.PutUint64(b[16:], uint64(m.T2))
		binary.LittleEndian.PutUint64(b[24:], uint64(m.T3))
		e.span(off, headerLen+24)
		return nil
	case ObsReport:
		return e.assembleObsReport(m)
	case EOS:
		off := e.reserve(headerLen)
		putHeader(e.arena[off:], KindEOS, 0, 0)
		e.span(off, headerLen)
		return nil
	default:
		return fmt.Errorf("wire: cannot encode %T", msg)
	}
}

// errIrregularFrame rejects a frame the dense layout cannot carry. The
// pipeline's packer and the decoder only produce regular frames.
var errIrregularFrame = errors.New("wire: irregular frame (empty, ragged rows or masks, or a sequence gap)")

// frameShape validates that f fits the dense-frame layout: at least one
// tuple, uniform nonzero dimension, consecutive sequence numbers, full-length
// masks where present. It returns the dimension and whether any tuple carries
// a mask, in which case the frame gets a mask block and its unmasked rows are
// written as all-observed.
func frameShape(f stream.Frame) (dim int, masked bool, err error) {
	if len(f.Tuples) == 0 || len(f.Tuples[0].Vec) == 0 {
		return 0, false, errIrregularFrame
	}
	dim = len(f.Tuples[0].Vec)
	for i := range f.Tuples {
		t := &f.Tuples[i]
		if len(t.Vec) != dim || t.Seq != f.Seq+int64(i) {
			return 0, false, errIrregularFrame
		}
		if t.Mask != nil {
			if len(t.Mask) != dim {
				return 0, false, errIrregularFrame
			}
			masked = true
		}
	}
	return dim, masked, nil
}

func (e *Encoder) assembleFrame(f stream.Frame) error {
	dim, masked, err := frameShape(f)
	if err != nil {
		return err
	}
	count := len(f.Tuples)
	floats := count * dim
	preLen := 16
	var flags byte
	if f.Trace.IngestNs != 0 {
		// Trace context rides as a fixed 16-byte prefix extension: a few
		// arena bytes per frame, no extra gather segment, no allocation.
		flags |= flagTrace
		preLen += 16
	}
	payload := preLen + floats*8
	if masked {
		flags |= flagMask
		payload += floats
	}
	if ingest.HostLE && !masked {
		// Zero-copy fast path: header+prefix plus each tuple's float
		// storage viewed in place, gathered into the batch's writev. Each
		// byte view stays inside its own vector's allocation (a slice
		// spanning the pool's whole B×d buffer would be undefined behavior
		// whenever the vectors are NOT pool slots that merely happen to sit
		// adjacently). The frame store is only released by the caller after
		// Flush returns, so the kernel is done with the bytes by then.
		off := e.reserve(headerLen + preLen)
		pre := e.arena[off:]
		putHeader(pre, KindFrame, flags, payload)
		binary.LittleEndian.PutUint64(pre[8:], uint64(f.Seq))
		binary.LittleEndian.PutUint32(pre[16:], uint32(count))
		binary.LittleEndian.PutUint32(pre[20:], uint32(dim))
		if flags&flagTrace != 0 {
			binary.LittleEndian.PutUint32(pre[24:], f.Trace.Origin)
			binary.LittleEndian.PutUint32(pre[28:], 0)
			binary.LittleEndian.PutUint64(pre[32:], uint64(f.Trace.IngestNs))
		}
		e.span(off, headerLen+preLen)
		for i := range f.Tuples {
			e.view(ingest.FloatBytes(f.Tuples[i].Vec))
		}
		return nil
	}
	off := e.reserve(headerLen + payload)
	buf := e.arena[off:]
	putHeader(buf, KindFrame, flags, payload)
	binary.LittleEndian.PutUint64(buf[8:], uint64(f.Seq))
	binary.LittleEndian.PutUint32(buf[16:], uint32(count))
	binary.LittleEndian.PutUint32(buf[20:], uint32(dim))
	if flags&flagTrace != 0 {
		binary.LittleEndian.PutUint32(buf[24:], f.Trace.Origin)
		binary.LittleEndian.PutUint32(buf[28:], 0)
		binary.LittleEndian.PutUint64(buf[32:], uint64(f.Trace.IngestNs))
	}
	pos := headerLen + preLen
	for _, t := range f.Tuples {
		putFloatsLE(buf[pos:pos+dim*8], t.Vec)
		pos += dim * 8
	}
	if masked {
		for _, t := range f.Tuples {
			// A complete row in a gappy frame is all-observed, which the
			// engine treats exactly as a nil mask.
			for i := 0; i < dim; i++ {
				if t.Mask == nil || t.Mask[i] {
					buf[pos] = 1
				} else {
					buf[pos] = 0
				}
				pos++
			}
		}
	}
	e.span(off, headerLen+payload)
	return nil
}

func (e *Encoder) assembleControl(c stream.Control) error {
	if len(c.Receivers) > maxRecv {
		return fmt.Errorf("wire: control names %d receivers, limit %d", len(c.Receivers), maxRecv)
	}
	payload := 16 + 4*len(c.Receivers)
	off := e.reserve(headerLen + payload)
	buf := e.arena[off:]
	putHeader(buf, KindControl, 0, payload)
	binary.LittleEndian.PutUint64(buf[8:], uint64(c.Round))
	binary.LittleEndian.PutUint32(buf[16:], uint32(int32(c.Sender)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(c.Receivers)))
	for i, r := range c.Receivers {
		binary.LittleEndian.PutUint32(buf[24+4*i:], uint32(int32(r)))
	}
	e.span(off, headerLen+payload)
	return nil
}

func (e *Encoder) assembleSnapshot(s stream.Snapshot) error {
	es, ok := s.State.(*core.Eigensystem)
	if !ok || es == nil {
		return fmt.Errorf("wire: snapshot state is %T, need *core.Eigensystem", s.State)
	}
	e.snap.Reset()
	if err := core.WriteEigensystem(&e.snap, es); err != nil {
		return err
	}
	full := e.snap.Bytes()
	payload := 16 + len(full)
	if payload > MaxPayload {
		return fmt.Errorf("wire: snapshot payload %d exceeds MaxPayload", payload)
	}
	off := e.reserve(headerLen + payload)
	buf := e.arena[off:]
	putHeader(buf, KindSnapshot, 0, payload)
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.Round))
	binary.LittleEndian.PutUint32(buf[16:], uint32(int32(s.From)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(int32(s.To)))
	copy(buf[24:], full)
	e.span(off, headerLen+payload)
	return nil
}

func (e *Encoder) assembleReport(r EngineReport) error {
	var flags byte
	if r.ResumedFromCheckpoint {
		flags |= flagResumed
	}
	e.snap.Reset()
	if r.Final != nil {
		flags |= flagFinal
		if err := core.WriteEigensystem(&e.snap, r.Final); err != nil {
			return err
		}
	}
	payload := 48 + e.snap.Len()
	if payload > MaxPayload {
		return fmt.Errorf("wire: report payload %d exceeds MaxPayload", payload)
	}
	off := e.reserve(headerLen + payload)
	buf := e.arena[off:]
	putHeader(buf, KindReport, flags, payload)
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(r.Engine)))
	binary.LittleEndian.PutUint32(buf[12:], 0)
	binary.LittleEndian.PutUint64(buf[16:], uint64(r.Processed))
	binary.LittleEndian.PutUint64(buf[24:], uint64(r.Outliers))
	binary.LittleEndian.PutUint64(buf[32:], uint64(r.SnapshotsSent))
	binary.LittleEndian.PutUint64(buf[40:], uint64(r.MergesApplied))
	binary.LittleEndian.PutUint64(buf[48:], uint64(r.Restarts))
	copy(buf[56:], e.snap.Bytes())
	e.span(off, headerLen+payload)
	return nil
}

// maxObsBody caps one obs-report body. Reports are deltas of a bounded
// snapshot (fixed histogram buckets, a capped journal window, sampled span
// rings), so a megabyte is generous headroom; anything larger is a protocol
// error, not a reason to allocate.
const maxObsBody = 1 << 20

func (e *Encoder) assembleObsReport(r ObsReport) error {
	if len(r.Body) > maxObsBody {
		return fmt.Errorf("wire: obs report body %d exceeds limit %d", len(r.Body), maxObsBody)
	}
	payload := 16 + len(r.Body)
	off := e.reserve(headerLen + payload)
	buf := e.arena[off:]
	putHeader(buf, KindObsReport, 0, payload)
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(r.Node)))
	binary.LittleEndian.PutUint32(buf[12:], 0)
	binary.LittleEndian.PutUint64(buf[16:], uint64(r.Seq))
	copy(buf[24:], r.Body)
	e.span(off, headerLen+payload)
	return nil
}

// RecvPool and NewRecvPool name stream.FramePool for their one caller, the
// benchmark module's decode timing; the decoder takes a stream.FramePool.
type RecvPool = stream.FramePool

// NewRecvPool returns stream.NewFramePool(dim, batch).
func NewRecvPool(dim, batch int) *RecvPool { return stream.NewFramePool(dim, batch) }

// Decoder reads wire messages from one reader. Not safe for concurrent
// use. Decode never panics on malformed input and its allocations are
// bounded by the bytes the peer actually delivered (plus one fixed-size
// chunk), never by what a hostile header claims.
type Decoder struct {
	br      *bufio.Reader
	hdr     [headerLen]byte
	scratch []byte
	pool    *stream.FramePool
	max     int
}

// NewDecoder returns a decoder reading from r, recycling the frames that fit
// pool, masked or not (nil disables pooling). maxPayload caps the accepted
// payload size; <=0 uses MaxPayload.
func NewDecoder(r io.Reader, pool *stream.FramePool, maxPayload int) *Decoder {
	if maxPayload <= 0 || maxPayload > MaxPayload {
		maxPayload = MaxPayload
	}
	// The reader buffer is deliberately small: dense-frame floats bypass it
	// (ingest.ReadFloatsLE drains the buffer, then ReadFulls straight into the
	// pooled store), so any byte the buffer slurps ahead of a frame payload
	// is copied twice. 4 KiB amortises header and control-plane reads while
	// keeping that double-copied fraction a few percent of a frame.
	return &Decoder{br: bufio.NewReaderSize(r, 4<<10), pool: pool, max: maxPayload}
}

// readPayload reads exactly n payload bytes into scratch, growing it in
// bounded steps as bytes actually arrive so a lying header cannot force a
// large allocation.
func (d *Decoder) readPayload(n int) ([]byte, error) {
	const chunk = 1 << 16
	got := 0
	for got < n {
		c := n - got
		if c > chunk {
			c = chunk
		}
		if cap(d.scratch) < got+c {
			grown := make([]byte, got+c)
			copy(grown, d.scratch[:got])
			d.scratch = grown
		}
		d.scratch = d.scratch[:got+c]
		if _, err := io.ReadFull(d.br, d.scratch[got:got+c]); err != nil {
			return nil, fmt.Errorf("wire: reading payload: %w", err)
		}
		got += c
	}
	return d.scratch[:n], nil
}

// Decode reads and returns the next message. It returns EOS{} for the
// clean end-of-stream frame and an error for torn connections or protocol
// violations.
func (d *Decoder) Decode() (stream.Message, error) {
	if _, err := io.ReadFull(d.br, d.hdr[:]); err != nil {
		return nil, err
	}
	if d.hdr[0] != magicByte {
		return nil, errors.New("wire: bad magic byte")
	}
	if d.hdr[1] != Version {
		return nil, fmt.Errorf("wire: unsupported protocol version %d", d.hdr[1])
	}
	kind, flags := Kind(d.hdr[2]), d.hdr[3]
	n := int(binary.LittleEndian.Uint32(d.hdr[4:8]))
	if n > d.max {
		return nil, fmt.Errorf("wire: payload %d exceeds limit %d", n, d.max)
	}
	switch kind {
	case KindHello:
		if n != helloWireLen-headerLen {
			return nil, fmt.Errorf("wire: hello payload %d, want %d", n, helloWireLen-headerLen)
		}
		p, err := d.readPayload(n)
		if err != nil {
			return nil, err
		}
		return parseHelloPayload(p), nil
	case KindFrame:
		f, err := d.decodeFrame(flags, n)
		if err != nil {
			return nil, err
		}
		return f, nil
	case KindControl:
		return d.decodeControl(n)
	case KindSnapshot:
		return d.decodeSnapshot(n)
	case KindReport:
		return d.decodeReport(flags, n)
	case KindClockProbe:
		if n != 16 {
			return nil, fmt.Errorf("wire: clock probe payload %d, want 16", n)
		}
		p, err := d.readPayload(n)
		if err != nil {
			return nil, err
		}
		return ClockProbe{
			Node: int(int32(binary.LittleEndian.Uint32(p[0:]))),
			T1:   int64(binary.LittleEndian.Uint64(p[8:])),
		}, nil
	case KindClockEcho:
		if n != 24 {
			return nil, fmt.Errorf("wire: clock echo payload %d, want 24", n)
		}
		p, err := d.readPayload(n)
		if err != nil {
			return nil, err
		}
		return ClockEcho{
			T1: int64(binary.LittleEndian.Uint64(p[0:])),
			T2: int64(binary.LittleEndian.Uint64(p[8:])),
			T3: int64(binary.LittleEndian.Uint64(p[16:])),
		}, nil
	case KindObsReport:
		return d.decodeObsReport(n)
	case KindBarrier:
		if n != 8 {
			return nil, fmt.Errorf("wire: barrier payload %d, want 8", n)
		}
		p, err := d.readPayload(n)
		if err != nil {
			return nil, err
		}
		return stream.Barrier{Epoch: int64(binary.LittleEndian.Uint64(p))}, nil
	case KindEOS:
		if n != 0 {
			return nil, fmt.Errorf("wire: EOS payload %d, want 0", n)
		}
		return EOS{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
}

func (d *Decoder) decodeFrame(flags byte, n int) (stream.Frame, error) {
	preLen := 16
	traced := flags&flagTrace != 0
	if traced {
		preLen += 16
	}
	if n < preLen {
		return stream.Frame{}, fmt.Errorf("wire: frame payload %d too short", n)
	}
	if _, err := d.readPayload(preLen); err != nil {
		return stream.Frame{}, err
	}
	baseSeq := int64(binary.LittleEndian.Uint64(d.scratch[0:]))
	count := int(binary.LittleEndian.Uint32(d.scratch[8:]))
	dim := int(binary.LittleEndian.Uint32(d.scratch[12:]))
	var trace stream.Trace
	if traced {
		trace.Origin = binary.LittleEndian.Uint32(d.scratch[16:])
		trace.IngestNs = int64(binary.LittleEndian.Uint64(d.scratch[24:]))
	}
	if count <= 0 || count > maxTuples || dim <= 0 || dim > maxWireDim {
		return stream.Frame{}, fmt.Errorf("wire: implausible frame shape %dx%d", count, dim)
	}
	floats := count * dim
	want := preLen + floats*8
	masked := flags&flagMask != 0
	if masked {
		want += floats
	}
	if n != want {
		return stream.Frame{}, fmt.Errorf("wire: frame shape %dx%d does not match payload %d", count, dim, n)
	}
	if d.pool.Fits(dim, count) {
		// Pooled path: the floats land directly in a recycled contiguous
		// buffer (one ReadFull, no conversion on LE hosts).
		fs := d.pool.Get()
		if err := ingest.ReadFloatsLE(d.br, fs.Add(baseSeq, count)); err != nil {
			fs.Frame(trace).Release()
			return stream.Frame{}, fmt.Errorf("wire: reading frame payload: %w", err)
		}
		if masked {
			p, err := d.readPayload(floats)
			if err != nil {
				fs.Frame(trace).Release()
				return stream.Frame{}, err
			}
			unpackMasks(fs, p)
		}
		return fs.Frame(trace), nil
	}
	// Unpooled path: payload bytes are read chunk-bounded before the float
	// buffer is sized, so allocation tracks delivered bytes.
	p, err := d.readPayload(n - preLen)
	if err != nil {
		return stream.Frame{}, err
	}
	fs := stream.NewFrameStore(dim, count)
	getFloatsLE(fs.Add(baseSeq, count), p[:floats*8])
	if masked {
		unpackMasks(fs, p[floats*8:])
	}
	return fs.Frame(trace), nil
}

// unpackMasks gives every row of fs its mask from the byte-per-bin block p
// (nonzero = observed).
func unpackMasks(fs *stream.FrameStore, p []byte) {
	for i := range fs.Len() {
		m := fs.Mask(i)
		for j, b := range p[i*len(m) : (i+1)*len(m)] {
			m[j] = b != 0
		}
	}
}

func (d *Decoder) decodeControl(n int) (stream.Message, error) {
	if n < 16 {
		return nil, fmt.Errorf("wire: control payload %d too short", n)
	}
	p, err := d.readPayload(n)
	if err != nil {
		return nil, err
	}
	nrecv := int(binary.LittleEndian.Uint32(p[12:]))
	if nrecv > maxRecv || n != 16+4*nrecv {
		return nil, fmt.Errorf("wire: control receiver count %d does not match payload %d", nrecv, n)
	}
	c := stream.Control{
		Round:  int64(binary.LittleEndian.Uint64(p[0:])),
		Sender: int(int32(binary.LittleEndian.Uint32(p[8:]))),
	}
	if nrecv > 0 {
		c.Receivers = make([]int, nrecv)
		for i := range c.Receivers {
			c.Receivers[i] = int(int32(binary.LittleEndian.Uint32(p[16+4*i:])))
		}
	}
	return c, nil
}

func (d *Decoder) decodeSnapshot(n int) (stream.Message, error) {
	if n < 16 {
		return nil, fmt.Errorf("wire: snapshot payload %d too short", n)
	}
	p, err := d.readPayload(n)
	if err != nil {
		return nil, err
	}
	es, err := core.ReadEigensystem(bytes.NewReader(p[16:]))
	if err != nil {
		return nil, fmt.Errorf("wire: snapshot eigensystem: %w", err)
	}
	return stream.Snapshot{
		Round: int64(binary.LittleEndian.Uint64(p[0:])),
		From:  int(int32(binary.LittleEndian.Uint32(p[8:]))),
		To:    int(int32(binary.LittleEndian.Uint32(p[12:]))),
		State: es,
	}, nil
}

func (d *Decoder) decodeObsReport(n int) (stream.Message, error) {
	if n < 16 || n > 16+maxObsBody {
		return nil, fmt.Errorf("wire: obs report payload %d out of range", n)
	}
	p, err := d.readPayload(n)
	if err != nil {
		return nil, err
	}
	r := ObsReport{
		Node: int(int32(binary.LittleEndian.Uint32(p[0:]))),
		Seq:  int64(binary.LittleEndian.Uint64(p[8:])),
	}
	if n > 16 {
		// Copy out of scratch: the report outlives the next Decode call.
		r.Body = append([]byte(nil), p[16:]...)
	}
	return r, nil
}

func (d *Decoder) decodeReport(flags byte, n int) (stream.Message, error) {
	if n < 48 {
		return nil, fmt.Errorf("wire: report payload %d too short", n)
	}
	p, err := d.readPayload(n)
	if err != nil {
		return nil, err
	}
	r := EngineReport{
		Engine:                int(int32(binary.LittleEndian.Uint32(p[0:]))),
		Processed:             int64(binary.LittleEndian.Uint64(p[8:])),
		Outliers:              int64(binary.LittleEndian.Uint64(p[16:])),
		SnapshotsSent:         int64(binary.LittleEndian.Uint64(p[24:])),
		MergesApplied:         int64(binary.LittleEndian.Uint64(p[32:])),
		Restarts:              int64(binary.LittleEndian.Uint64(p[40:])),
		ResumedFromCheckpoint: flags&flagResumed != 0,
	}
	if flags&flagFinal != 0 {
		es, err := core.ReadEigensystem(bytes.NewReader(p[48:]))
		if err != nil {
			return nil, fmt.Errorf("wire: report eigensystem: %w", err)
		}
		r.Final = es
	} else if n != 48 {
		return nil, fmt.Errorf("wire: report payload %d with no final eigensystem", n)
	}
	return r, nil
}
