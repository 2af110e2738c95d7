package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// ClusterCollector is the one read path of the observability plane: it
// absorbs worker Reports, keeps the newest cumulative snapshot per node,
// merges their journals by gap-free sequence number, and serves the merged
// view (JSON, Prometheus with node labels, one skew-corrected Chrome trace).
// The local instrument set participates as node "coordinator" with clock
// offset zero — its clock is the cluster timeline — so a single process is
// a cluster of one node.
type ClusterCollector struct {
	local *Set
	mu    sync.Mutex
	nodes map[string]*clusterNode
}

// clusterNode is the per-worker aggregation state.
type clusterNode struct {
	name string
	last Report
	// reports counts distinct reports absorbed; dups counts redeliveries
	// (report seq at or below one already absorbed — the at-least-once
	// transport doing its job).
	reports, dups int64
	// evNext is the next journal Seq expected; gaps totals the events the
	// seq chain proves were never delivered.
	evNext int64
	gaps   int64
	// events is the merged, deduplicated journal window (bounded; oldest
	// dropped first and counted in evDropped).
	events    []Event
	evDropped int64
}

// clusterEventCap bounds the merged journal window retained per node.
const clusterEventCap = DefaultJournalCap

// CoordinatorNode is the node name the coordinator's own set reports under.
const CoordinatorNode = "coordinator"

// NewClusterCollector returns a cluster collector whose local (coordinator)
// node is set. A single process is a cluster of that one node; a nil set is
// a detached aggregator that shows only the absorbed workers.
func NewClusterCollector(set *Set) *ClusterCollector {
	return &ClusterCollector{local: set, nodes: make(map[string]*clusterNode)}
}

// Absorb merges one worker report. Idempotent under redelivery: a report
// whose Seq was already absorbed only bumps the node's duplicate counter,
// and journal events are deduplicated by their gap-free Seq, so the
// at-least-once report transport never double-counts. Returns false for a
// duplicate.
func (cc *ClusterCollector) Absorb(r Report) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := cc.nodes[r.Node]
	if n == nil {
		n = &clusterNode{name: r.Node}
		cc.nodes[r.Node] = n
	}
	if n.reports > 0 && r.Seq <= n.last.Seq {
		n.dups++
		return false
	}
	n.reports++
	n.last = r
	for _, ev := range r.Events {
		if ev.Seq < n.evNext {
			continue // overlap-window redelivery
		}
		if ev.Seq > n.evNext {
			n.gaps += ev.Seq - n.evNext
		}
		n.events = append(n.events, ev)
		n.evNext = ev.Seq + 1
	}
	if over := len(n.events) - clusterEventCap; over > 0 {
		n.evDropped += int64(over)
		n.events = append(n.events[:0], n.events[over:]...)
	}
	return true
}

// AbsorbJSON decodes a JSON-encoded report (the wire obs-report body) and
// absorbs it.
func (cc *ClusterCollector) AbsorbJSON(body []byte) error {
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("obs: decoding cluster report: %w", err)
	}
	if r.Node == "" {
		return fmt.Errorf("obs: cluster report without a node name")
	}
	cc.Absorb(r)
	return nil
}

// sortedNames returns the absorbed nodes' names in order; cc.mu is held.
func (cc *ClusterCollector) sortedNames() []string {
	names := make([]string, 0, len(cc.nodes))
	for name := range cc.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NodeSnapshot is one node's entry in the cluster view.
type NodeSnapshot struct {
	Node string `json:"node"`
	// ReportSeq is the newest absorbed report's sequence number (0 for the
	// coordinator, which is read directly, not reported).
	ReportSeq int64 `json:"report_seq"`
	// Reports / DupReports / EventGaps / EventsMerged are the at-least-once
	// accounting: distinct reports absorbed, redeliveries discarded, journal
	// events the seq chain proves lost, and events merged into the window.
	Reports      int64 `json:"reports"`
	DupReports   int64 `json:"dup_reports"`
	EventGaps    int64 `json:"event_gaps"`
	EventsMerged int64 `json:"events_merged"`
	// ClockOffsetNs is the node's offset onto the coordinator clock and
	// ClockRTTNs the round trip bounding its error (±rtt/2).
	ClockOffsetNs int64 `json:"clock_offset_ns"`
	ClockRTTNs    int64 `json:"clock_rtt_ns"`
	// Snapshot is the node's newest cumulative snapshot.
	Snapshot Snapshot `json:"snapshot"`
}

// ClusterSnapshot is the merged cluster view.
type ClusterSnapshot struct {
	TakenNs int64 `json:"taken_ns"`
	// Nodes holds the coordinator first, then workers sorted by name.
	Nodes []NodeSnapshot `json:"nodes"`
	// E2ELatency is the cluster-wide end-to-end tuple-latency histogram:
	// every node's fixed-bucket histogram summed bucket-wise.
	E2ELatency *HistogramSnapshot `json:"e2e_latency_ns,omitempty"`
}

// Snapshot builds the merged cluster view: a fresh local snapshot plus the
// newest absorbed report per worker, with the end-to-end histograms merged
// by bucket addition.
func (cc *ClusterCollector) Snapshot() ClusterSnapshot {
	var cs ClusterSnapshot
	if cc.local != nil {
		local := cc.local.Snapshot()
		cs.TakenNs = local.TakenNs
		cs.Nodes = append(cs.Nodes, NodeSnapshot{
			Node:     CoordinatorNode,
			Snapshot: local,
		})
	}
	cc.mu.Lock()
	for _, name := range cc.sortedNames() {
		n := cc.nodes[name]
		cs.Nodes = append(cs.Nodes, NodeSnapshot{
			Node:          n.name,
			ReportSeq:     n.last.Seq,
			Reports:       n.reports,
			DupReports:    n.dups,
			EventGaps:     n.gaps,
			EventsMerged:  int64(len(n.events)) + n.evDropped,
			ClockOffsetNs: n.last.ClockOffsetNs,
			ClockRTTNs:    n.last.ClockRTTNs,
			Snapshot:      n.last.Snapshot,
		})
		if cs.TakenNs < n.last.Snapshot.TakenNs {
			cs.TakenNs = n.last.Snapshot.TakenNs
		}
	}
	cc.mu.Unlock()
	var e2e HistogramSnapshot
	for _, ns := range cs.Nodes {
		if ns.Snapshot.E2ELatency != nil {
			e2e.MergeFrom(*ns.Snapshot.E2ELatency)
		}
	}
	if e2e.Count > 0 {
		cs.E2ELatency = &e2e
	}
	return cs
}
