package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// OpInstruments is the per-operator hot-path instrument bundle the stream
// runtime writes into on every Process call. All fields are lock free; the
// bundle is handed to an operator once at wiring time so the record path
// never touches a map or lock.
type OpInstruments struct {
	// Name is the stream node name.
	Name string
	// Latency buckets Process wall time in nanoseconds.
	Latency *Histogram
	// BatchSize buckets the tuple weight of each processed message.
	BatchSize *Histogram
	// QueueDepth buckets the input-port backlog observed at dequeue.
	QueueDepth *Histogram
	// Spans retains recent Process busy spans for the trace exporter.
	Spans *SpanRing
}

func newOpInstruments(name string) *OpInstruments {
	return &OpInstruments{
		Name:       name,
		Latency:    NewHistogram(LatencyBounds()),
		BatchSize:  NewHistogram(SizeBounds()),
		QueueDepth: NewHistogram(DepthBounds()),
		Spans:      NewSpanRing(0),
	}
}

// RecordProcess records one Process call: its wall start time and duration
// in nanoseconds, the tuple weight of the message, and the input backlog
// observed when it was dequeued.
func (o *OpInstruments) RecordProcess(startNs, durNs, weight int64, queueLen int) {
	o.Latency.Record(durNs)
	o.BatchSize.Record(weight)
	o.QueueDepth.Record(int64(queueLen))
	o.Spans.Record(startNs, durNs)
}

// MaxEigGauges bounds how many leading eigenvalues an engine publishes.
const MaxEigGauges = 16

// EngineInstruments publishes one engine's algorithm-level state: the robust
// M-scale, the leading eigenvalues and eigengap, the forgetting-factor
// effective N, and observation/outlier tallies. The engine's operator writes
// it once per frame; every publish is an atomic store.
type EngineInstruments struct {
	// Index is the engine's index in the pipeline (-1 when standalone).
	Index int

	// Sigma2 is the current robust M-scale estimate σ².
	Sigma2 Gauge
	// EffN is the forgetting-factor effective sample size.
	EffN Gauge
	// SinceSync is the number of observations absorbed since the last sync.
	SinceSync Gauge
	// Eigengap is λ_p − λ_{p+1} for the configured component count p
	// (0 when the subspace holds no spare direction to measure against).
	Eigengap Gauge

	// Observations counts processed vectors, warm-up included; Outliers
	// counts those whose standardized residual exceeded the outlier
	// threshold. Their ratio is the outlier-rejection rate exposed by
	// snapshots.
	Observations Counter
	Outliers     Counter

	eig      [MaxEigGauges]Gauge
	eigCount atomic.Int64
}

// RecordEigen publishes an engine's eigensystem state as of its last update:
// the M-scale σ², the effective N, the observations since the last sync, the
// leading eigenvalues (up to MaxEigGauges) and the eigengap λ_p − λ_{p+1}
// for component count p.
func (e *EngineInstruments) RecordEigen(sigma2, effN float64, sinceSync int64, vals []float64, p int) {
	e.Sigma2.Set(sigma2)
	e.EffN.Set(effN)
	e.SinceSync.Set(float64(sinceSync))
	n := len(vals)
	if n > MaxEigGauges {
		n = MaxEigGauges
	}
	for i := 0; i < n; i++ {
		e.eig[i].Set(vals[i])
	}
	e.eigCount.Store(int64(n))
	if p > 0 && p < len(vals) {
		e.Eigengap.Set(vals[p-1] - vals[p])
	} else {
		e.Eigengap.Set(0)
	}
}

// Eigenvalues returns the last published leading eigenvalues.
func (e *EngineInstruments) Eigenvalues() []float64 {
	n := int(e.eigCount.Load())
	out := make([]float64, n)
	for i := range out {
		out[i] = e.eig[i].Get()
	}
	return out
}

// SyncInstruments publishes the synchronization controller's view: the
// round tally and the wall time of the last plan, from which snapshots
// derive a staleness gauge. Each round's command and exclusion counts ride
// its sync-plan journal event.
type SyncInstruments struct {
	// Rounds counts planned sync rounds.
	Rounds Counter

	lastPlanNs atomic.Int64
	journal    *Journal
}

// RecordPlan records one planned round: cmds control commands issued with
// failed peers excluded.
func (s *SyncInstruments) RecordPlan(round int64, cmds, failed int) {
	s.Rounds.Inc()
	now := time.Now().UnixNano()
	s.lastPlanNs.Store(now)
	if s.journal != nil {
		s.journal.Append(Event{
			Kind:   EvSyncPlan,
			Engine: -1,
			TimeNs: now,
			N:      round,
			A:      float64(cmds),
			B:      float64(failed),
		})
	}
}

// LastPlanNs returns the wall time of the most recent plan (0 before any).
func (s *SyncInstruments) LastPlanNs() int64 { return s.lastPlanNs.Load() }

// OpCounters mirrors the stream runtime's cumulative per-operator counters.
// It is declared here (rather than importing the stream package) so obs stays
// a leaf package; the pipeline installs an adapter that converts
// stream.MetricsSnapshot values into this shape.
type OpCounters struct {
	Name      string `json:"name"`
	In        int64  `json:"in"`
	Out       int64  `json:"out"`
	TuplesIn  int64  `json:"tuples_in"`
	TuplesOut int64  `json:"tuples_out"`
	Dropped   int64  `json:"dropped"`
	BusyNs    int64  `json:"busy_ns"`
	QueueLen  int64  `json:"queue_len"`
}

// Set is the root of one run's instruments: the journal, per-operator
// bundles, per-engine gauges, the sync controller's instruments, and any
// ad-hoc named gauges/counters a binary wants exposed. Instrument handles are
// created at wiring time under a lock and then written lock free.
type Set struct {
	mu      sync.Mutex
	ops     map[string]*OpInstruments
	engines map[int]*EngineInstruments
	gauges  map[string]*Gauge
	ctrs    map[string]*Counter

	sync    SyncInstruments
	journal *Journal
	e2e     *Histogram

	opCounters atomic.Pointer[func() []OpCounters]
	startNs    int64
}

// NewSet returns an empty instrument set with a DefaultJournalCap journal.
func NewSet() *Set {
	s := &Set{
		ops:     make(map[string]*OpInstruments),
		engines: make(map[int]*EngineInstruments),
		gauges:  make(map[string]*Gauge),
		ctrs:    make(map[string]*Counter),
		journal: NewJournal(0),
		e2e:     NewHistogram(LatencyBounds()),
		startNs: time.Now().UnixNano(),
	}
	s.sync.journal = s.journal
	return s
}

// E2E is the end-to-end tuple-latency histogram: ingest-time stamp to
// outlier decision, measured per frame on the observing engine's clock
// after skew correction. Cross-process by construction — the stamp rides
// the wire in the frame's trace context — and mergeable across nodes
// because every set uses the same LatencyBounds layout.
func (s *Set) E2E() *Histogram { return s.e2e }

// Journal returns the set's event journal.
func (s *Set) Journal() *Journal { return s.journal }

// StartNs returns the wall time the set was created — the trace epoch.
func (s *Set) StartNs() int64 { return s.startNs }

// Op returns (creating on first use) the instrument bundle for the named
// operator. Call once at wiring time and retain the pointer; the bundle
// itself is lock free.
func (s *Set) Op(name string) *OpInstruments {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.ops[name]
	if !ok {
		o = newOpInstruments(name)
		s.ops[name] = o
	}
	return o
}

// Engine returns (creating on first use) the instrument bundle for engine i.
func (s *Set) Engine(i int) *EngineInstruments {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.engines[i]
	if !ok {
		e = &EngineInstruments{Index: i}
		s.engines[i] = e
	}
	return e
}

// Sync returns the synchronization controller's instruments.
func (s *Set) Sync() *SyncInstruments { return &s.sync }

// Gauge returns (creating on first use) a named ad-hoc gauge.
func (s *Set) Gauge(name string) *Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// WireInstruments bundles one edge's syscall-amortization gauges: how many
// payload bytes and frames each writev carried. The edge's sender goroutine
// refreshes them after every delivered batch.
type WireInstruments struct {
	BytesPerWritev  *Gauge
	FramesPerWritev *Gauge
}

// Wire returns (creating on first use) the wire gauges for one named edge,
// registered as ad-hoc gauges under a "wire.<name>." prefix so the HTTP
// and trace expositions pick them up like any other gauge.
func (s *Set) Wire(name string) *WireInstruments {
	return &WireInstruments{
		BytesPerWritev:  s.Gauge("wire." + name + ".bytes_per_writev"),
		FramesPerWritev: s.Gauge("wire." + name + ".frames_per_writev"),
	}
}

// Counter returns (creating on first use) a named ad-hoc counter.
func (s *Set) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.ctrs[name]
	if !ok {
		c = &Counter{}
		s.ctrs[name] = c
	}
	return c
}

// SetOpCounters installs the adapter that reads the stream runtime's
// cumulative per-operator counters (typically a closure over Graph.Metrics).
func (s *Set) SetOpCounters(f func() []OpCounters) {
	if f == nil {
		s.opCounters.Store(nil)
		return
	}
	s.opCounters.Store(&f)
}

func (s *Set) opCounterRows() []OpCounters {
	f := s.opCounters.Load()
	if f == nil {
		return nil
	}
	rows := (*f)()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// opList returns the operator bundles sorted by name.
func (s *Set) opList() []*OpInstruments {
	s.mu.Lock()
	out := make([]*OpInstruments, 0, len(s.ops))
	for _, o := range s.ops {
		out = append(out, o)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// engineList returns the engine bundles sorted by index.
func (s *Set) engineList() []*EngineInstruments {
	s.mu.Lock()
	out := make([]*EngineInstruments, 0, len(s.engines))
	for _, e := range s.engines {
		out = append(out, e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// namedGauges returns name→value for the ad-hoc gauges.
func (s *Set) namedGauges() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.gauges))
	for k, g := range s.gauges {
		out[k] = g.Get()
	}
	return out
}

// namedCounters returns name→value for the ad-hoc counters.
func (s *Set) namedCounters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.ctrs))
	for k, c := range s.ctrs {
		out[k] = c.Load()
	}
	return out
}
