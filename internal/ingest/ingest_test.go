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

// TestBinaryStreamRecordsAreFresh pins the Stream contract the one-pass
// decoder must keep: the byte scratch is reused, the returned vec and mask
// are not, and a transport error other than EOF passes through unchanged.
func TestBinaryStreamRecordsAreFresh(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, []float64{1, math.NaN(), 3})
	binary.Write(&buf, binary.LittleEndian, []float64{math.NaN(), 5, math.Inf(-1)})
	boom := errors.New("boom")
	s := NewBinaryStream(io.MultiReader(&buf, iotest.ErrReader(boom)), 3)
	v1, m1, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	v2, m2, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if v1[0] != 1 || !math.IsNaN(v1[1]) || v1[2] != 3 || !m1[0] || m1[1] || !m1[2] {
		t.Fatalf("first record overwritten by the second: %v %v", v1, m1)
	}
	if !math.IsNaN(v2[0]) || v2[1] != 5 || !math.IsInf(v2[2], -1) || m2[0] || !m2[1] || !m2[2] {
		t.Fatalf("second record: %v %v (only NaN marks a gap)", v2, m2)
	}
	if _, _, err := s.Next(); err != boom {
		t.Fatalf("transport error = %v, want it passed through", err)
	}
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
