// Package ingest provides the input-side flexibility of §III-A1: "Local
// regular text or binary file with CSV ... Network TCP sockets and http
// URLs are also supported out of the box as a source of data." Every
// source yields observations as ([]float64, mask) records; NaN entries (or
// the literal "NaN") mark missing bins and produce a mask.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"streampca/internal/mat"
)

// Stream yields observations until io.EOF. Implementations are not safe
// for concurrent use.
type Stream interface {
	// Next returns the next observation. mask is nil for complete vectors
	// (true = observed otherwise). vec and mask are valid until the next
	// call, as bufio.Scanner.Bytes is: a stream may reuse their storage. The
	// error is io.EOF at clean end of stream; any other error describes a
	// malformed record or transport failure.
	Next() (vec []float64, mask []bool, err error)
}

// AsSource adapts a Stream to the pipeline's pull function, passing each row
// on uncopied (the pipeline copies it into its frame before it pulls again).
// Malformed records are skipped (reported to onErr when non-nil); the source
// ends at io.EOF or any transport error.
func AsSource(s Stream, onErr func(error)) func() ([]float64, []bool, bool) {
	return func() ([]float64, []bool, bool) {
		for {
			vec, mask, err := s.Next()
			if err == nil {
				return vec, mask, true
			}
			if errors.Is(err, io.EOF) {
				return nil, nil, false
			}
			if onErr != nil {
				onErr(err)
			}
			var rec *RecordError
			if !errors.As(err, &rec) {
				return nil, nil, false
			}
			// A malformed record is skipped; the stream keeps going.
		}
	}
}

// RecordError marks a single malformed record; the stream remains usable.
type RecordError struct {
	// Line is the 1-based record number.
	Line int
	// Reason describes the problem.
	Reason string
}

// Error implements error.
func (e *RecordError) Error() string {
	return fmt.Sprintf("ingest: record %d: %s", e.Line, e.Reason)
}

// CSVOptions configures CSV parsing.
type CSVOptions struct {
	// MetaColumns leading columns are skipped (e.g. spectragen -meta
	// emits redshift, outlier flag, observed count).
	MetaColumns int
	// Dim, when non-zero, enforces the observation length; otherwise the
	// first valid record fixes it.
	Dim int
	// Comment is the line-comment prefix (default "#").
	Comment string
}

// CSVStream parses comma-separated observations from r, one per line.
// Empty entries and the literals NaN/nan are treated as missing bins.
type CSVStream struct {
	opts CSVOptions
	sc   *bufio.Scanner
	line int
	dim  int
}

// NewCSVStream wraps r as a CSV observation stream.
func NewCSVStream(r io.Reader, opts CSVOptions) *CSVStream {
	if opts.Comment == "" {
		opts.Comment = "#"
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	return &CSVStream{opts: opts, sc: sc, dim: opts.Dim}
}

// Next implements Stream.
func (c *CSVStream) Next() ([]float64, []bool, error) {
	for c.sc.Scan() {
		c.line++
		text := strings.TrimSpace(c.sc.Text())
		if text == "" || strings.HasPrefix(text, c.opts.Comment) {
			continue
		}
		fields := strings.Split(text, ",")
		if c.opts.MetaColumns > 0 {
			if len(fields) <= c.opts.MetaColumns {
				return nil, nil, &RecordError{c.line, "fewer fields than MetaColumns"}
			}
			fields = fields[c.opts.MetaColumns:]
		}
		if c.dim == 0 {
			c.dim = len(fields)
		}
		if len(fields) != c.dim {
			return nil, nil, &RecordError{c.line, fmt.Sprintf("got %d values, want %d", len(fields), c.dim)}
		}
		vec := make([]float64, c.dim)
		for i, f := range fields {
			vec[i] = math.NaN() // an empty entry is missing; ParseFloat reads "NaN" in any case
			if f = strings.TrimSpace(f); f != "" {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, nil, &RecordError{c.line, fmt.Sprintf("column %d: %v", i+1, err)}
				}
				vec[i] = v
			}
		}
		return vec, gapMask(vec, nil), nil
	}
	if err := c.sc.Err(); err != nil {
		return nil, nil, err
	}
	return nil, nil, io.EOF
}

// gapMask returns nil when vec holds no NaN, and otherwise mask (allocated
// when nil) false exactly at vec's NaN bins. A complete record costs one
// branch-free finiteness scan; one that fails it goes straight to the fill.
func gapMask(vec []float64, mask []bool) []bool {
	if mat.AllFinite(vec) {
		return nil
	}
	if mask == nil {
		mask = make([]bool, len(vec))
	}
	missing := false
	for j, v := range vec {
		mask[j] = !math.IsNaN(v)
		missing = missing || !mask[j]
	}
	if !missing { // ±Inf but no NaN: a complete record
		return nil
	}
	return mask
}

// HostLE reports whether this host stores float64 little-endian, so that a
// float64 slice's in-memory bytes are its little-endian encoding.
var HostLE = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// FloatBytes reinterprets a float64 slice as its in-memory byte view.
//
//streampca:noalloc
func FloatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*8)
}

// ReadFloatsLE fills dst with len(dst) little-endian float64 values from r:
// one io.ReadFull into dst's own bytes, byte-swapped in place on big-endian
// hosts. Every bit pattern (NaN payloads, −0, ±Inf) comes through unchanged.
// The error is io.ReadFull's.
func ReadFloatsLE(r io.Reader, dst []float64) error {
	b := FloatBytes(dst)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if !HostLE {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return nil
}

// BinaryStream reads fixed-length records of little-endian float64 values
// (the "binary file" input of §III-A1). NaN payload values mark missing
// bins.
type BinaryStream struct {
	r    io.Reader
	line int
	vec  []float64 // the current record, overwritten by every Next
	mask []bool    // the current record's gaps, overwritten by every Next
}

// NewBinaryStream wraps r as a binary observation stream of the given
// dimensionality. It panics if dim is not positive.
func NewBinaryStream(r io.Reader, dim int) *BinaryStream {
	if dim <= 0 {
		panic("ingest: BinaryStream dim must be positive")
	}
	return &BinaryStream{r: bufio.NewReader(r), vec: make([]float64, dim), mask: make([]bool, dim)}
}

// Next implements Stream. The record is read straight into the stream's own
// vector and scanned once for NaNs; only a record that has one fills the
// mask. Both are the stream's storage and are overwritten by the next call.
func (b *BinaryStream) Next() ([]float64, []bool, error) {
	b.line++
	if err := ReadFloatsLE(b.r, b.vec); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, &RecordError{b.line, "truncated record at end of stream"}
		}
		return nil, nil, err
	}
	return b.vec, gapMask(b.vec, b.mask), nil
}

// DirStream reads every regular file in dir (sorted by name, matching the
// optional glob pattern) as a concatenated CSV stream — "a folder of such
// files can feed the data" (§III-A1).
type DirStream struct {
	opts  CSVOptions
	files []string
	cur   *CSVStream
	curF  io.Closer
}

// NewDirStream lists dir and prepares to stream its files in name order.
// pattern is a filepath.Match glob applied to base names ("" = all files).
func NewDirStream(dir, pattern string, opts CSVOptions) (*DirStream, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if pattern == "" {
		pattern = "*"
	}
	var files []string // in name order, as os.ReadDir lists them
	for _, e := range entries {
		ok, err := filepath.Match(pattern, e.Name())
		if err != nil {
			return nil, err
		}
		if ok && !e.IsDir() {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return &DirStream{opts: opts, files: files}, nil
}

// Next implements Stream, advancing through the folder's files.
func (d *DirStream) Next() ([]float64, []bool, error) {
	for {
		if d.cur == nil {
			if len(d.files) == 0 {
				return nil, nil, io.EOF
			}
			f, err := os.Open(d.files[0])
			d.files = d.files[1:]
			if err != nil {
				return nil, nil, err
			}
			d.cur, d.curF = NewCSVStream(f, d.opts), f
		}
		vec, mask, err := d.cur.Next()
		if errors.Is(err, io.EOF) {
			// The Dim learned from the first file carries across files so
			// inconsistent folders surface as record errors.
			d.opts.Dim = d.cur.dim
			d.Close()
			continue
		}
		return vec, mask, err
	}
}

// Close releases the currently open file, if any.
func (d *DirStream) Close() error {
	if d.curF != nil {
		err := d.curF.Close()
		d.cur, d.curF = nil, nil
		return err
	}
	return nil
}

// HTTPStream fetches url with a GET request and parses the response body
// as CSV (the "http URLs" input of §III-A1).
func HTTPStream(url string, opts CSVOptions) (Stream, io.Closer, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("ingest: GET %s: %s", url, resp.Status)
	}
	return NewCSVStream(resp.Body, opts), resp.Body, nil
}

// TCPServer accepts CSV observation lines on a listening socket (the "TCP
// sockets" input of §III-A1). Multiple producers may connect sequentially
// or concurrently; their parsed records are merged into one stream. Close
// the server to end the stream.
type TCPServer struct {
	ln      net.Listener
	records chan tcpRecord
	closing chan struct{}
	done    chan struct{}

	mu    sync.Mutex
	conns []net.Conn
}

type tcpRecord struct {
	vec  []float64
	mask []bool
	err  error
}

// NewTCPServer listens on addr (e.g. "127.0.0.1:0") and starts accepting
// producers.
func NewTCPServer(addr string, opts CSVOptions) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{
		ln:      ln,
		records: make(chan tcpRecord, 256),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.acceptLoop(opts)
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, disconnects producers, and ends the stream.
func (s *TCPServer) Close() error {
	close(s.closing)
	err := s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-s.done // acceptLoop closes records after all producers finish
	return err
}

func (s *TCPServer) acceptLoop(opts CSVOptions) {
	var wg sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			break // listener closed
		}
		s.mu.Lock()
		s.conns = append(s.conns, conn)
		s.mu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			cs := NewCSVStream(conn, opts)
			for {
				vec, mask, err := cs.Next()
				if errors.Is(err, io.EOF) {
					return
				}
				var rec *RecordError
				terminal := err != nil && !errors.As(err, &rec)
				// Close closes closing before any producer conn, so a read
				// that failed because Close shut the conn sees it closed
				// here; without this check the buffered send below could win
				// the select and deliver that error after Close.
				select {
				case <-s.closing:
					return
				default:
				}
				select {
				case s.records <- tcpRecord{vec, mask, err}:
				case <-s.closing:
					return
				}
				if terminal {
					return // transport failure: stop reading this producer
				}
			}
		}(conn)
	}
	wg.Wait()
	close(s.records)
	close(s.done)
}

// Next implements Stream: it blocks until a record arrives from any
// connected producer, and returns io.EOF after Close.
func (s *TCPServer) Next() ([]float64, []bool, error) {
	rec, ok := <-s.records
	if !ok {
		return nil, nil, io.EOF
	}
	return rec.vec, rec.mask, rec.err
}
