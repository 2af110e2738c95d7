package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func TestCSVStreamBasic(t *testing.T) {
	in := "# comment\n1,2,3\n\n4,5,6\n"
	s := NewCSVStream(strings.NewReader(in), CSVOptions{})
	v1, m1, err := s.Next()
	if err != nil || m1 != nil {
		t.Fatal(err, m1)
	}
	if v1[0] != 1 || v1[2] != 3 {
		t.Fatalf("v1 = %v", v1)
	}
	v2, _, err := s.Next()
	if err != nil || v2[0] != 4 {
		t.Fatal(err, v2)
	}
	if _, _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestCSVStreamNaNProducesMask(t *testing.T) {
	s := NewCSVStream(strings.NewReader("1,NaN,3\n1,,3\n"), CSVOptions{})
	for i := 0; i < 2; i++ {
		v, m, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m == nil || m[1] || !m[0] || !m[2] {
			t.Fatalf("row %d mask = %v", i, m)
		}
		if !math.IsNaN(v[1]) {
			t.Fatalf("row %d v = %v", i, v)
		}
	}
}

func TestCSVStreamMetaColumns(t *testing.T) {
	s := NewCSVStream(strings.NewReader("0.1,1,250,7,8,9\n"), CSVOptions{MetaColumns: 3})
	v, _, err := s.Next()
	if err != nil || len(v) != 3 || v[0] != 7 {
		t.Fatalf("v = %v, err = %v", v, err)
	}
}

func TestCSVStreamDimEnforcement(t *testing.T) {
	s := NewCSVStream(strings.NewReader("1,2\n1,2,3\n4,5\n"), CSVOptions{})
	if _, _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Next()
	var rec *RecordError
	if !errors.As(err, &rec) {
		t.Fatalf("want RecordError, got %v", err)
	}
	// Stream stays usable after a bad record.
	v, _, err := s.Next()
	if err != nil || v[1] != 5 {
		t.Fatal(err, v)
	}
}

func TestCSVStreamParseError(t *testing.T) {
	s := NewCSVStream(strings.NewReader("1,x,3\n"), CSVOptions{})
	_, _, err := s.Next()
	var rec *RecordError
	if !errors.As(err, &rec) || rec.Line != 1 {
		t.Fatalf("want RecordError line 1, got %v", err)
	}
	if rec.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestCSVStreamExplicitDim(t *testing.T) {
	s := NewCSVStream(strings.NewReader("1,2,3\n"), CSVOptions{Dim: 4})
	if _, _, err := s.Next(); err == nil {
		t.Fatal("explicit dim should reject 3-field row")
	}
}

func TestAsSourceSkipsBadRecords(t *testing.T) {
	in := "1,2\nbad,row\n3,4\n"
	var reported []error
	src := AsSource(NewCSVStream(strings.NewReader(in), CSVOptions{}), func(err error) {
		reported = append(reported, err)
	})
	var got [][]float64
	for {
		v, _, ok := src()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[1][0] != 3 {
		t.Fatalf("got %v", got)
	}
	if len(reported) != 1 {
		t.Fatalf("reported %v", reported)
	}
}

func TestBinaryStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rows := [][]float64{{1, 2, 3}, {4, math.NaN(), 6}}
	for _, r := range rows {
		if err := binary.Write(&buf, binary.LittleEndian, r); err != nil {
			t.Fatal(err)
		}
	}
	s := NewBinaryStream(&buf, 3)
	v1, m1, err := s.Next()
	if err != nil || m1 != nil || v1[2] != 3 {
		t.Fatal(err, v1, m1)
	}
	v2, m2, err := s.Next()
	if err != nil || m2 == nil || m2[1] || !math.IsNaN(v2[1]) {
		t.Fatal(err, v2, m2)
	}
	if _, _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryStreamTruncated(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, []float64{1, 2, 3})
	buf.Write([]byte{1, 2, 3}) // partial trailing record
	s := NewBinaryStream(&buf, 3)
	if _, _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Next()
	var rec *RecordError
	if !errors.As(err, &rec) {
		t.Fatalf("want RecordError for truncation, got %v", err)
	}
}

// TestBinaryStreamReusesRecordStorage pins the Stream contract BinaryStream
// relies on: vec and mask are valid until the next call, which reads the next
// record into the same storage. Only NaN marks a gap, and a transport error
// other than EOF passes through unchanged.
func TestBinaryStreamReusesRecordStorage(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, []float64{1, math.NaN(), 3})
	binary.Write(&buf, binary.LittleEndian, []float64{math.NaN(), 5, math.Inf(-1)})
	boom := errors.New("boom")
	s := NewBinaryStream(io.MultiReader(&buf, iotest.ErrReader(boom)), 3)
	v1, m1, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if v1[0] != 1 || !math.IsNaN(v1[1]) || v1[2] != 3 || !m1[0] || m1[1] || !m1[2] {
		t.Fatalf("first record: %v %v", v1, m1)
	}
	v2, m2, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v2[0]) || v2[1] != 5 || !math.IsInf(v2[2], -1) || m2[0] || !m2[1] || !m2[2] {
		t.Fatalf("second record: %v %v (only NaN marks a gap)", v2, m2)
	}
	if &v1[0] != &v2[0] || &m1[0] != &m2[0] {
		t.Fatal("second record was not read into the first record's storage")
	}
	if _, _, err := s.Next(); err != boom {
		t.Fatalf("transport error = %v, want it passed through", err)
	}
}

// loopReader serves buf over and over, never reaching EOF.
type loopReader struct {
	buf []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.buf[l.off:])
	l.off = (l.off + n) % len(l.buf)
	return n, nil
}

// binaryRecords encodes rows as one little-endian float64 record stream.
func binaryRecords(rows [][]float64) []byte {
	var buf bytes.Buffer
	for _, r := range rows {
		binary.Write(&buf, binary.LittleEndian, r)
	}
	return buf.Bytes()
}

// gappyRows returns n d-long rows, three in every ten (30%) with a run of
// NaN gaps, like the redshift-cut spectra of the science workload.
func gappyRows(n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(i*d+j) * 0.25
		}
		if i%10 < 3 {
			for j := d / 4; j < d/4+d/10; j++ {
				rows[i][j] = math.NaN()
			}
		}
	}
	return rows
}

// TestBinaryStreamReadsWithoutAllocating: in steady state a record costs no
// allocation, complete or gappy.
func TestBinaryStreamReadsWithoutAllocating(t *testing.T) {
	const d = 1000
	for _, tc := range []struct {
		name string
		rows [][]float64
	}{
		{"complete", gappyRows(10, d)[3:4]},
		{"gappy", gappyRows(10, d)[:1]},
	} {
		s := NewBinaryStream(&loopReader{buf: binaryRecords(tc.rows)}, d)
		if _, mask, err := s.Next(); err != nil || (mask != nil) != (tc.name == "gappy") {
			t.Fatalf("%s: mask %v, err %v", tc.name, mask != nil, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s record: %v allocations per Next, want 0", tc.name, allocs)
		}
	}
}

// TestCSVStreamReadsWithoutAllocating: in steady state a CSV record with
// gaps (an empty entry and a NaN) costs no allocation.
func TestCSVStreamReadsWithoutAllocating(t *testing.T) {
	s := NewCSVStream(&loopReader{buf: []byte("0.5, ,2.25,NaN,-1e3,7\n")}, CSVOptions{})
	if _, mask, err := s.Next(); err != nil || mask == nil || mask[1] || mask[3] || !mask[0] {
		t.Fatalf("mask %v, err %v", mask, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("gappy CSV record: %v allocations per Next, want 0", allocs)
	}
}

// TestTCPServerQueuesCopies: a producer's records wait in the server's queue
// while its CSVStream reuses its row and mask for the next line, so each
// queued record must be a copy.
func TestTCPServerQueuesCopies(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(conn, "1,NaN,3\n4,5,6\n")
	conn.Close()
	v1, m1, err := srv.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Next(); err != nil {
		t.Fatal(err)
	}
	if v1[0] != 1 || !math.IsNaN(v1[1]) || v1[2] != 3 || m1 == nil || m1[1] || !m1[0] {
		t.Fatalf("first record changed after the second arrived: %v %v", v1, m1)
	}
}

// FuzzBinaryStream holds BinaryStream to the reference decode: every whole
// record is bitwise math.Float64frombits(binary.LittleEndian.Uint64(·)) of
// its bytes (NaN payloads, −0 and ±Inf included), its mask is nil when it
// holds no NaN and otherwise false exactly at the NaN bins, and a partial
// tail is one RecordError followed by io.EOF.
func FuzzBinaryStream(f *testing.F) {
	word := func(bits ...uint64) []byte {
		b := make([]byte, 0, 8*len(bits))
		for _, u := range bits {
			b = binary.LittleEndian.AppendUint64(b, u)
		}
		return b
	}
	negZero, inf, negInf := uint64(1)<<63, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))
	f.Add(uint8(3), word(math.Float64bits(1), 0x7ff8000000000001, negZero, inf, negInf, 0xfff0000000000002))
	f.Add(uint8(1), word(0x7ff0000000000001, 0x7fffffffffffffff, math.Float64bits(-2.5)))
	f.Add(uint8(2), word(math.Float64bits(1), inf, negInf)) // ±Inf without NaN: complete
	f.Add(uint8(2), append(word(negZero, math.Float64bits(math.NaN())), 1, 2, 3))
	f.Add(uint8(63), binaryRecords(gappyRows(3, 64)))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, dimSeed uint8, data []byte) {
		dim := 1 + int(dimSeed)%64
		s := NewBinaryStream(bytes.NewReader(data), dim)
		rec := 8 * dim
		for r := 0; r < len(data)/rec; r++ {
			vec, mask, err := s.Next()
			if err != nil || len(vec) != dim {
				t.Fatalf("record %d: %d values, err %v", r, len(vec), err)
			}
			gap := false
			for i, v := range vec {
				want := binary.LittleEndian.Uint64(data[r*rec+8*i:])
				if got := math.Float64bits(v); got != want {
					t.Fatalf("record %d bin %d: bits %#x, want %#x", r, i, got, want)
				}
				nan := math.IsNaN(math.Float64frombits(want))
				gap = gap || nan
				if mask != nil && mask[i] == nan {
					t.Fatalf("record %d bin %d: mask %v for NaN=%v", r, i, mask[i], nan)
				}
			}
			if (mask != nil) != gap || mask != nil && len(mask) != dim {
				t.Fatalf("record %d: mask %v for a record with gaps=%v", r, mask, gap)
			}
		}
		if len(data)%rec != 0 {
			var re *RecordError
			if _, _, err := s.Next(); !errors.As(err, &re) {
				t.Fatalf("partial tail: err %v, want a RecordError", err)
			}
		}
		if _, _, err := s.Next(); err != io.EOF {
			t.Fatalf("after the last record: err %v, want io.EOF", err)
		}
	})
}

// BenchmarkBinaryStream reads d=1000 records, 30% of them gappy, through a
// stream; one op is one record.
func BenchmarkBinaryStream(b *testing.B) {
	const d = 1000
	b.Run("d-1000", func(b *testing.B) {
		s := NewBinaryStream(&loopReader{buf: binaryRecords(gappyRows(100, d))}, d)
		b.ReportAllocs()
		b.SetBytes(8 * d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestBinaryStreamPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBinaryStream(strings.NewReader(""), 0)
}

func TestHTTPStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# header\n1,2\n3,4\n")
	}))
	defer srv.Close()
	s, closer, err := HTTPStream(srv.URL, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var n int
	for {
		_, _, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d rows", n)
	}
}

func TestHTTPStreamBadStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()
	if _, _, err := HTTPStream(srv.URL, CSVOptions{}); err == nil {
		t.Fatal("404 should fail")
	}
}

func TestTCPServerSingleProducer(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		fmt.Fprint(conn, "1,2,3\n4,5,6\n")
		conn.Close()
	}()
	var rows [][]float64
	deadline := time.After(10 * time.Second)
	for len(rows) < 2 {
		select {
		case <-deadline:
			t.Fatal("timed out waiting for records")
		default:
		}
		v, _, err := srv.Next()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, v)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after close, got %v", err)
	}
}

func TestTCPServerMultipleProducers(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const rowsEach = 25
	for p := 0; p < producers; p++ {
		go func(p int) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := 0; i < rowsEach; i++ {
				fmt.Fprintf(conn, "%d,%d\n", p, i)
			}
		}(p)
	}
	seen := 0
	deadline := time.After(20 * time.Second)
	for seen < producers*rowsEach {
		select {
		case <-deadline:
			t.Fatalf("timed out after %d records", seen)
		default:
		}
		_, _, err := srv.Next()
		if err != nil {
			t.Fatal(err)
		}
		seen++
	}
	srv.Close()
}

func TestTCPServerCloseUnblocksProducers(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Flood without the consumer reading: producer will block on the
	// internal channel; Close must still return promptly.
	go func() {
		for i := 0; i < 100000; i++ {
			if _, err := fmt.Fprintf(conn, "%d,1\n", i); err != nil {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with a blocked producer")
	}
}

func TestDirStreamConcatenatesFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.csv", "3,4\n")
	write("a.csv", "1,2\n")
	write("skip.txt", "not,a,csv,row\n")
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	ds, err := NewDirStream(dir, "*.csv", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var rows [][]float64
	for {
		v, _, err := ds.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, v)
	}
	if len(rows) != 2 || rows[0][0] != 1 || rows[1][0] != 3 {
		t.Fatalf("rows = %v (name order a.csv then b.csv expected)", rows)
	}
}

func TestDirStreamInconsistentDims(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1,2\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "b.csv"), []byte("1,2,3\n"), 0o644)
	ds, err := NewDirStream(dir, "", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, _, err := ds.Next(); err != nil {
		t.Fatal(err)
	}
	_, _, err = ds.Next()
	var rec *RecordError
	if !errors.As(err, &rec) {
		t.Fatalf("dimension change across files should be a RecordError, got %v", err)
	}
}

func TestDirStreamMissingDir(t *testing.T) {
	if _, err := NewDirStream("/nonexistent-xyz", "", CSVOptions{}); err == nil {
		t.Fatal("missing dir should error")
	}
}

func TestDirStreamEmpty(t *testing.T) {
	ds, err := NewDirStream(t.TempDir(), "", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty dir should EOF, got %v", err)
	}
}
