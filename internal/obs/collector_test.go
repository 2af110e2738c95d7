package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// populate fills a set with a little of everything, for exposition tests.
func populate(s *Set) {
	op := s.Op("pca-0")
	op.RecordProcess(s.StartNs()+1_000, 25_000, 8, 3)
	op.RecordProcess(s.StartNs()+50_000, 12_000, 1, 0)

	e := s.Engine(0)
	e.Sigma2.Set(1.25)
	e.EffN.Set(512)
	e.SinceSync.Set(96)
	e.LastWeight.Set(0.9)
	e.RecordEigen([]float64{5, 3, 1}, 2)
	e.Observations.Add(100)
	e.Outliers.Add(4)
	e.RecordRebuild(RebuildRankOne)
	e.RecordRebuild(RebuildRankC)

	s.Sync().RecordPlan(3, 4, 1)
	s.Journal().Append(Event{Kind: EvSyncSend, Engine: 0, N: 3, A: 96, B: 64})
	s.Gauge("sim_time_s").Set(12.5)
	s.Counter("tuples_dropped").Add(7)
}

func TestSnapshotContents(t *testing.T) {
	s := NewSet()
	populate(s)
	snap := s.Snapshot()

	if len(snap.Operators) != 1 || snap.Operators[0].Name != "pca-0" {
		t.Fatalf("operators = %+v", snap.Operators)
	}
	if snap.Operators[0].Latency.Count != 2 {
		t.Errorf("latency count = %d, want 2", snap.Operators[0].Latency.Count)
	}
	if len(snap.Engines) != 1 {
		t.Fatalf("engines = %+v", snap.Engines)
	}
	e := snap.Engines[0]
	if e.Sigma2 != 1.25 || e.EffN != 512 {
		t.Errorf("engine gauges: %+v", e)
	}
	if want := []float64{5, 3, 1}; len(e.Eigenvalues) != 3 ||
		e.Eigenvalues[0] != want[0] || e.Eigenvalues[2] != want[2] {
		t.Errorf("eigenvalues = %v", e.Eigenvalues)
	}
	if e.Eigengap != 2 { // λ₂−λ₃ = 3−1
		t.Errorf("eigengap = %g, want 2", e.Eigengap)
	}
	if e.OutlierRate != 0.04 {
		t.Errorf("outlier rate = %g, want 0.04", e.OutlierRate)
	}
	if e.Rebuilds.RankOne != 1 || e.Rebuilds.RankC != 1 {
		t.Errorf("rebuilds = %+v", e.Rebuilds)
	}
	if snap.Sync.Rounds != 1 || snap.Sync.Commands != 4 || snap.Sync.Excluded != 1 {
		t.Errorf("sync = %+v", snap.Sync)
	}
	if snap.Sync.StalenessNs <= 0 {
		t.Errorf("staleness = %d, want > 0", snap.Sync.StalenessNs)
	}
	// journal: sync-plan, rebuild-shift (rank-one→rank-c), sync-send
	if snap.Journal.Len != 3 {
		t.Errorf("journal len = %d, want 3 (recent: %+v)", snap.Journal.Len, snap.Journal.Recent)
	}
	if snap.Gauges["sim_time_s"] != 12.5 || snap.Counters["tuples_dropped"] != 7 {
		t.Errorf("named metrics: %+v %+v", snap.Gauges, snap.Counters)
	}
}

func TestRebuildShiftJournalsTransitionsOnly(t *testing.T) {
	s := NewSet()
	e := s.Engine(1)
	for i := 0; i < 100; i++ {
		e.RecordRebuild(RebuildRankOne)
	}
	if got := s.Journal().Len(); got != 0 {
		t.Fatalf("steady rebuilds journaled %d events, want 0", got)
	}
	e.RecordRebuild(RebuildRankC)
	e.RecordRebuild(RebuildRankC)
	e.RecordRebuild(RebuildRankOne)
	evs := s.Journal().Events(0)
	if len(evs) != 2 {
		t.Fatalf("journal = %+v, want 2 transitions", evs)
	}
	if evs[0].Kind != EvRebuildShift || RebuildKind(evs[0].N) != RebuildRankC {
		t.Errorf("first transition = %+v", evs[0])
	}
	if RebuildKind(evs[1].N) != RebuildRankOne || RebuildKind(int64(evs[1].A)) != RebuildRankC {
		t.Errorf("second transition = %+v", evs[1])
	}
}

func TestOpCountersAdapterMergedIntoSnapshot(t *testing.T) {
	s := NewSet()
	s.Op("sink")
	s.SetOpCounters(func() []OpCounters {
		return []OpCounters{
			{Name: "source", TuplesOut: 100},
			{Name: "sink", TuplesIn: 100, QueueLen: 5},
		}
	})
	snap := s.Snapshot()
	if len(snap.Operators) != 2 {
		t.Fatalf("operators = %+v", snap.Operators)
	}
	for _, op := range snap.Operators {
		if op.Counters == nil {
			t.Fatalf("operator %q missing counters", op.Name)
		}
	}
	if snap.Operators[0].Name != "sink" || snap.Operators[0].Counters.QueueLen != 5 {
		t.Errorf("sink row = %+v", snap.Operators[0])
	}
	if snap.Operators[1].Name != "source" || snap.Operators[1].Counters.TuplesOut != 100 {
		t.Errorf("source row = %+v", snap.Operators[1])
	}
}

func TestCollectorPeriodicRefresh(t *testing.T) {
	s := NewSet()
	c := NewCollector(s, 10*time.Millisecond)
	if c.Latest().TakenNs == 0 {
		t.Fatal("NewCollector should take an initial snapshot")
	}
	c.Start()
	defer c.Stop()
	s.Counter("ticks").Add(1)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Latest().Counters["ticks"] == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("collector never refreshed the counter")
}

func TestWritePrometheusFormat(t *testing.T) {
	s := NewSet()
	populate(s)
	var buf bytes.Buffer
	WritePrometheus(&buf, s.Snapshot())
	out := buf.String()

	for _, want := range []string{
		`streampca_op_latency_ns_bucket{op="pca-0",le="+Inf"} 2`,
		`streampca_op_latency_ns_count{op="pca-0"} 2`,
		`streampca_engine_sigma2{engine="0"} 1.25`,
		`streampca_engine_eigengap{engine="0"} 2`,
		`streampca_engine_eigenvalue{engine="0",rank="0"} 5`,
		`streampca_engine_outlier_rate{engine="0"} 0.04`,
		`streampca_sync_rounds_total 1`,
		`streampca_sim_time_s 12.5`,
		`streampca_tuples_dropped 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Cumulative bucket counts must be monotone per histogram.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `streampca_op_latency_ns_bucket{op="pca-0"`) {
			continue
		}
		v, err := sampleValue(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, prev)
		}
		prev = v
	}
}

// sampleValue pulls the trailing integer off a prometheus sample line.
func sampleValue(line string) (int64, error) {
	i := strings.LastIndexByte(line, ' ')
	return strconv.ParseInt(line[i+1:], 10, 64)
}

func TestWriteTraceLoadsAsTraceDoc(t *testing.T) {
	s := NewSet()
	populate(s)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	var spans, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur <= 0 || ev.Ts < 0 {
				t.Errorf("bad span %+v", ev)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 2 {
		t.Errorf("spans = %d, want 2", spans)
	}
	if instants != 3 { // sync-plan, rebuild-shift, sync-send
		t.Errorf("instants = %d, want 3", instants)
	}
	if meta < 3 { // process_name + control-plane + op thread
		t.Errorf("metadata events = %d, want ≥ 3", meta)
	}
}

func TestRecordPathsDoNotAllocate(t *testing.T) {
	s := NewSet()
	op := s.Op("hot")
	e := s.Engine(0)
	vals := []float64{4, 2, 1}
	if n := testing.AllocsPerRun(1000, func() {
		op.RecordProcess(1, 2, 3, 4)
		e.Sigma2.Set(1)
		e.EffN.Set(2)
		e.SinceSync.Set(3)
		e.LastWeight.Set(0.5)
		e.RecordEigen(vals, 2)
		e.Observations.Inc()
		e.RecordRebuild(RebuildRankOne)
	}); n != 0 {
		t.Fatalf("record path allocates %g allocs/op, want 0", n)
	}
}
