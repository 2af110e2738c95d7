package streampca_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"streampca"
)

// TestEndToEndTCPPipelineCheckpointResume exercises the full production
// path: synthetic spectra stream over a real TCP socket → CSV ingestion →
// parallel pipeline with ring synchronization → binary checkpoint →
// resumed engine continuing the analysis.
func TestEndToEndTCPPipelineCheckpointResume(t *testing.T) {
	const (
		bins  = 80
		rank  = 3
		total = 6000
	)
	gen, err := streampca.NewSpectraGenerator(streampca.SpectraConfig{
		Grid: streampca.SDSSGrid(bins), Rank: rank, Seed: 31, OutlierRate: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1: serve the survey over TCP as CSV lines.
	srv, err := streampca.NewTCPServer("127.0.0.1:0", streampca.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf := bytes.Buffer{}
		for i := 0; i < total; i++ {
			buf.Reset()
			obs := gen.Next()
			for j, f := range obs.Flux {
				if j > 0 {
					buf.WriteByte(',')
				}
				if math.IsNaN(f) {
					buf.WriteString("NaN")
				} else {
					fmt.Fprintf(&buf, "%g", f)
				}
			}
			buf.WriteByte('\n')
			if _, err := conn.Write(buf.Bytes()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Stage 2: parallel pipeline fed by the socket.
	var received int
	src := streampca.StreamSource(srv, nil)
	counted := func() ([]float64, []bool, bool) {
		v, m, ok := src()
		if ok {
			received++
			if received == total {
				// End of known stream: close the server so the source
				// terminates (producers have finished by now).
				go srv.Close()
			}
		}
		return v, m, ok
	}
	res, err := streampca.RunPipeline(context.Background(), streampca.PipelineConfig{
		Engine:       streampca.Config{Dim: bins, Components: rank, Alpha: 1 - 1.0/2000},
		NumEngines:   2,
		Source:       counted,
		SyncEvery:    3 * time.Millisecond,
		SyncStrategy: streampca.SyncRing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuplesIn != total {
		t.Fatalf("pipeline saw %d tuples", res.TuplesIn)
	}
	if res.Merged == nil {
		t.Fatal("no merged eigensystem")
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.9 {
		t.Fatalf("affinity = %v", aff)
	}

	// Stage 3: checkpoint and resume.
	var ckpt bytes.Buffer
	if err := streampca.WriteEigensystem(&ckpt, res.Merged); err != nil {
		t.Fatal(err)
	}
	restored, err := streampca.ReadEigensystem(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	en, err := streampca.ResumeEngine(streampca.Config{
		Dim: bins, Components: rank, Alpha: 1 - 1.0/2000,
	}, restored)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		obs := gen.Next()
		if _, err := en.ObserveAuto(obs.Flux); err != nil {
			t.Fatal(err)
		}
	}
	final, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if aff := final.SubspaceAffinity(gen.TrueBasis()); aff < 0.95 {
		t.Fatalf("resumed affinity = %v", aff)
	}
	if final.Count <= restored.Count {
		t.Fatal("resumed engine did not advance its count")
	}
}

// TestEndToEndPeerToPeerSync runs the pipeline under the random-pairing
// strategy added beyond the paper's ring/broadcast/group.
func TestEndToEndPeerToPeerSync(t *testing.T) {
	gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: 30, Signals: 2, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	res, err := streampca.RunPipeline(context.Background(), streampca.PipelineConfig{
		Engine:       streampca.Config{Dim: 30, Components: 2, Alpha: 1 - 1.0/300},
		NumEngines:   4,
		SyncEvery:    2 * time.Millisecond,
		SyncStrategy: streampca.SyncPeerToPeer,
		Source: func() ([]float64, []bool, bool) {
			if n >= 16000 {
				return nil, nil, false
			}
			n++
			x, _ := gen.Next()
			return x, nil, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var syncs int64
	for _, st := range res.Engines {
		syncs += st.SnapshotsSent
	}
	if syncs == 0 {
		t.Fatal("peer-to-peer produced no syncs")
	}
	if aff := res.Merged.SubspaceAffinity(gen.TrueBasis()); aff < 0.85 {
		t.Fatalf("affinity = %v", aff)
	}
}
