package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWirePrometheusGauges pins the exposition names of the wire transport
// gauges: an edge named wire-0 must surface its coalescing telemetry as
// streampca_wire_wire_0_{bytes,frames}_per_writev.
func TestWirePrometheusGauges(t *testing.T) {
	s := NewSet()
	wi := s.Wire("wire-0")
	wi.BytesPerWritev.Set(4096)
	wi.FramesPerWritev.Set(3.5)

	var buf bytes.Buffer
	WritePrometheus(&buf, s.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"streampca_wire_wire_0_bytes_per_writev 4096",
		"streampca_wire_wire_0_frames_per_writev 3.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// workerReport builds a report for a synthetic worker with engine activity,
// journal events, spans and wire gauges — the shape a real worker ships.
func workerReport(t *testing.T, node string, seq int64, offsetNs int64) Report {
	t.Helper()
	s := NewSet()
	wi := s.Wire("wire-worker")
	wi.BytesPerWritev.Set(1024)
	wi.FramesPerWritev.Set(2)
	e := s.Engine(0)
	e.Observations.Add(500)
	e.Outliers.Add(10)
	s.E2E().Record(2_000_000)
	s.E2E().Record(4_000_000)
	op := s.Op("pca0")
	op.Latency.Record(5_000)
	op.Spans.Record(s.StartNs()+1_000, 500)
	s.Journal().Append(Event{Kind: EvSyncSend, Engine: 0})
	s.Journal().Append(Event{Kind: EvSyncMerge, Engine: 0})
	rep := NewReporter(s, node)
	var r Report
	for i := int64(0); i < seq; i++ {
		r = rep.Report(offsetNs, 40_000)
	}
	return r
}

// TestClusterPrometheusNodeLabels checks the aggregated text format: every
// sample carries a node label, the wire gauges surface per node, and the
// merged end-to-end histogram sums the per-node ones.
func TestClusterPrometheusNodeLabels(t *testing.T) {
	cc := NewClusterCollector(nil)
	if !cc.Absorb(workerReport(t, "worker-0", 1, 1500)) {
		t.Fatal("first report rejected")
	}
	if !cc.Absorb(workerReport(t, "worker-1", 1, -800)) {
		t.Fatal("second report rejected")
	}
	cs := cc.Snapshot()
	if cs.E2ELatency == nil || cs.E2ELatency.Count != 4 {
		t.Fatalf("merged e2e histogram = %+v, want count 4", cs.E2ELatency)
	}

	var buf bytes.Buffer
	WriteClusterPrometheus(&buf, cs)
	out := buf.String()
	for _, want := range []string{
		"streampca_cluster_nodes 2",
		`streampca_node_reports_total{node="worker-0"} 1`,
		`streampca_node_reports_total{node="worker-1"} 1`,
		`streampca_node_clock_offset_seconds{node="worker-0"} 1.5e-06`,
		`streampca_node_clock_rtt_seconds{node="worker-0"} 4e-05`,
		`streampca_node_engine_observations_total{node="worker-1",engine="0"} 500`,
		`streampca_node_wire_wire_worker_bytes_per_writev{node="worker-0"} 1024`,
		`streampca_node_wire_wire_worker_frames_per_writev{node="worker-1"} 2`,
		`streampca_e2e_latency_ns_count{} 4`,
		`streampca_node_e2e_latency_ns_count{node="worker-0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster prometheus output missing %q", want)
		}
	}
}

// TestClusterAbsorbAccounting exercises the at-least-once bookkeeping:
// redelivered reports count as dups without double-merging, overlap-window
// events dedup by journal seq, and a seq jump is counted as exactly the
// events it proves lost.
func TestClusterAbsorbAccounting(t *testing.T) {
	cc := NewClusterCollector(nil)
	r1 := Report{Node: "w", Seq: 1, Events: []Event{
		{Seq: 0, Kind: EvSyncSend}, {Seq: 1, Kind: EvSyncSend},
	}}
	if !cc.Absorb(r1) {
		t.Fatal("fresh report rejected")
	}
	// Same seq again: a redelivery, not new data.
	if cc.Absorb(r1) {
		t.Fatal("redelivered report accepted as new")
	}
	// Next report re-carries event 1 (overlap) and jumps to 5: events 2-4
	// were lost for good (three of them).
	r2 := Report{Node: "w", Seq: 2, Events: []Event{
		{Seq: 1, Kind: EvSyncSend}, {Seq: 5, Kind: EvSyncMerge},
	}}
	if !cc.Absorb(r2) {
		t.Fatal("successor report rejected")
	}
	cs := cc.Snapshot()
	if len(cs.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(cs.Nodes))
	}
	n := cs.Nodes[0]
	if n.Reports != 2 || n.DupReports != 1 {
		t.Errorf("reports/dups = %d/%d, want 2/1", n.Reports, n.DupReports)
	}
	if n.EventGaps != 3 {
		t.Errorf("event gaps = %d, want 3", n.EventGaps)
	}
	if n.EventsMerged != 3 { // seq 0, 1, 5 — the overlap copy deduped
		t.Errorf("events merged = %d, want 3", n.EventsMerged)
	}
}

// TestClusterReporterRoundTrip sends a reporter's output through the JSON
// wire shape and checks the journal floor semantics: consecutive reports
// overlap by reportEventOverlap and never lose an event between them.
func TestClusterReporterRoundTrip(t *testing.T) {
	s := NewSet()
	for i := 0; i < 10; i++ {
		s.Journal().Append(Event{Kind: EvSyncSend, Engine: i})
	}
	rep := NewReporter(s, "worker-3")
	cc := NewClusterCollector(nil)

	r1 := rep.Report(123, 456)
	body, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.AbsorbJSON(body); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		s.Journal().Append(Event{Kind: EvSyncMerge, Engine: i})
	}
	r2 := rep.Report(123, 456)
	if len(r2.Events) < 4 {
		t.Fatalf("second report carries %d events, want at least the 4 new ones", len(r2.Events))
	}
	body2, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.AbsorbJSON(body2); err != nil {
		t.Fatal(err)
	}

	cs := cc.Snapshot()
	n := cs.Nodes[0]
	if n.EventGaps != 0 {
		t.Errorf("event gaps = %d, want 0 (overlap covers consecutive reports)", n.EventGaps)
	}
	if n.EventsMerged != 14 {
		t.Errorf("events merged = %d, want 14", n.EventsMerged)
	}
	if n.ClockOffsetNs != 123 || n.ClockRTTNs != 456 {
		t.Errorf("clock fields = %d/%d, want 123/456", n.ClockOffsetNs, n.ClockRTTNs)
	}
}

// TestClusterTraceMonotoneLanes renders a merged trace with a deliberately
// skewed worker and checks per-lane monotonicity and offset correction.
func TestClusterTraceMonotoneLanes(t *testing.T) {
	local := NewSet()
	cc := NewClusterCollector(local)

	// A worker whose clock runs 1ms behind the coordinator: spans stamped on
	// its clock shift forward by the offset.
	s := NewSet()
	op := s.Op("pca0")
	base := local.StartNs()
	op.Spans.Record(base+3_000_000-1_000_000, 10_000) // out of order on purpose
	op.Spans.Record(base+1_000_000-1_000_000, 10_000)
	rep := NewReporter(s, "worker-0")
	cc.Absorb(rep.Report(1_000_000, 80_000))

	var buf bytes.Buffer
	if err := cc.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Pid int     `json:"pid"`
			Tid int     `json:"tid"`
			Ts  float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	last := map[[2]int]float64{}
	var workerSpans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Ts < 0 {
			t.Errorf("span before epoch: ts=%v", ev.Ts)
		}
		lane := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < last[lane] {
			t.Errorf("lane %v not monotone: %v after %v", lane, ev.Ts, last[lane])
		}
		last[lane] = ev.Ts
		if ev.Pid >= 2 {
			workerSpans++
		}
	}
	if workerSpans != 2 {
		t.Errorf("worker spans in trace = %d, want 2", workerSpans)
	}
}
