package obs

import "time"

// OpSnapshot is one operator's point-in-time view: the runtime's cumulative
// counters (when an adapter is installed) plus the three hot-path histograms.
type OpSnapshot struct {
	Name       string            `json:"name"`
	Counters   *OpCounters       `json:"counters,omitempty"`
	Latency    HistogramSnapshot `json:"latency_ns"`
	BatchSize  HistogramSnapshot `json:"batch_size"`
	QueueDepth HistogramSnapshot `json:"queue_depth"`
}

// EngineSnapshot is one engine's algorithm-level view.
type EngineSnapshot struct {
	Index        int       `json:"index"`
	Sigma2       float64   `json:"sigma2"`
	EffN         float64   `json:"eff_n"`
	SinceSync    float64   `json:"since_sync"`
	Eigenvalues  []float64 `json:"eigenvalues"`
	Eigengap     float64   `json:"eigengap"`
	Observations int64     `json:"observations"`
	Outliers     int64     `json:"outliers"`
	OutlierRate  float64   `json:"outlier_rate"`
}

// SyncSnapshot is the synchronization controller's view. StalenessNs is the
// wall time since the last planned round (0 before the first plan).
type SyncSnapshot struct {
	Rounds      int64 `json:"rounds"`
	LastPlanNs  int64 `json:"last_plan_ns"`
	StalenessNs int64 `json:"staleness_ns"`
}

// EventView is a journal event rendered for exposition: the kind becomes its
// stable string name.
type EventView struct {
	Seq    int64   `json:"seq"`
	TimeNs int64   `json:"time_ns"`
	Kind   string  `json:"kind"`
	Node   string  `json:"node,omitempty"`
	Engine int     `json:"engine"`
	N      int64   `json:"n"`
	A      float64 `json:"a"`
	B      float64 `json:"b"`
}

func viewEvents(evs []Event) []EventView {
	out := make([]EventView, len(evs))
	for i, ev := range evs {
		out[i] = EventView{
			Seq: ev.Seq, TimeNs: ev.TimeNs, Kind: ev.Kind.String(),
			Node: ev.Node, Engine: ev.Engine, N: ev.N, A: ev.A, B: ev.B,
		}
	}
	return out
}

// JournalSnapshot summarizes the journal: totals plus the newest events
// (bounded so the JSON document stays small; the /journal endpoint serves
// the full retained window).
type JournalSnapshot struct {
	Len     int         `json:"len"`
	Dropped int64       `json:"dropped"`
	Recent  []EventView `json:"recent"`
}

// Snapshot is a full point-in-time copy of an instrument set.
type Snapshot struct {
	TakenNs   int64              `json:"taken_ns"`
	UptimeNs  int64              `json:"uptime_ns"`
	Operators []OpSnapshot       `json:"operators"`
	Engines   []EngineSnapshot   `json:"engines"`
	Sync      SyncSnapshot       `json:"sync"`
	Gauges    map[string]float64 `json:"gauges,omitempty"`
	Counters  map[string]int64   `json:"counters,omitempty"`
	Journal   JournalSnapshot    `json:"journal"`
	// E2ELatency is the end-to-end tuple-latency histogram (ingest stamp to
	// outlier decision, skew-corrected); nil until a traced frame lands.
	E2ELatency *HistogramSnapshot `json:"e2e_latency_ns,omitempty"`
}

// snapshotRecentEvents bounds Snapshot.Journal.Recent.
const snapshotRecentEvents = 64

// Snapshot copies the set's current state.
func (s *Set) Snapshot() Snapshot {
	now := time.Now().UnixNano()
	snap := Snapshot{
		TakenNs:  now,
		UptimeNs: now - s.startNs,
		Gauges:   s.namedGauges(),
		Counters: s.namedCounters(),
	}

	rows := s.opCounterRows()
	byName := make(map[string]*OpCounters, len(rows))
	for i := range rows {
		byName[rows[i].Name] = &rows[i]
	}
	seen := make(map[string]bool, len(rows))
	for _, o := range s.opList() {
		seen[o.Name] = true
		snap.Operators = append(snap.Operators, OpSnapshot{
			Name:       o.Name,
			Counters:   byName[o.Name],
			Latency:    o.Latency.Snapshot(),
			BatchSize:  o.BatchSize.Snapshot(),
			QueueDepth: o.QueueDepth.Snapshot(),
		})
	}
	// Operators known to the runtime but never instrumented (e.g. wired
	// before Instrument was called) still surface their counters.
	for i := range rows {
		if !seen[rows[i].Name] {
			snap.Operators = append(snap.Operators, OpSnapshot{
				Name:     rows[i].Name,
				Counters: &rows[i],
			})
		}
	}

	for _, e := range s.engineList() {
		obsN := e.Observations.Load()
		out := e.Outliers.Load()
		es := EngineSnapshot{
			Index:        e.Index,
			Sigma2:       e.Sigma2.Get(),
			EffN:         e.EffN.Get(),
			SinceSync:    e.SinceSync.Get(),
			Eigenvalues:  e.Eigenvalues(),
			Eigengap:     e.Eigengap.Get(),
			Observations: obsN,
			Outliers:     out,
		}
		if obsN > 0 {
			es.OutlierRate = float64(out) / float64(obsN)
		}
		snap.Engines = append(snap.Engines, es)
	}

	sy := SyncSnapshot{
		Rounds:     s.sync.Rounds.Load(),
		LastPlanNs: s.sync.LastPlanNs(),
	}
	if sy.LastPlanNs > 0 {
		sy.StalenessNs = now - sy.LastPlanNs
	}
	snap.Sync = sy

	snap.Journal = JournalSnapshot{
		Len:     s.journal.Len(),
		Dropped: s.journal.Dropped(),
		Recent:  viewEvents(s.journal.Events(snapshotRecentEvents)),
	}
	if s.e2e.Count() > 0 {
		e2e := s.e2e.Snapshot()
		snap.E2ELatency = &e2e
	}
	return snap
}
