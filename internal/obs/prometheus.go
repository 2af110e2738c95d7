package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The Prometheus text exposition (format 0.0.4) has one renderer. A view is
// a list of nodes, each contributing the same metric families: /metrics is a
// single unlabeled node under the streampca_ prefix, /cluster/metrics is
// every node of the cluster under streampca_node_ with a node label, plus
// the cluster-wide families and the merge accounting.

// family is one metric family: its name after the view's prefix, its type
// and help text, and the samples one node contributes to it.
type family struct {
	name, typ, help string
	write           func(s sampler, n *NodeSnapshot)
}

// sampler writes one node's samples of one family: name is the family's
// full name and label the node's label (`node="x",`, or empty for an
// unlabeled node).
type sampler struct {
	w           io.Writer
	name, label string
}

// sample writes one sample line; labels are further `k="v",` pairs.
func (s sampler) sample(labels string, v any) {
	if ls := strings.TrimSuffix(s.label+labels, ","); ls != "" {
		fmt.Fprintf(s.w, "%s{%s} %v\n", s.name, ls, v)
	} else {
		fmt.Fprintf(s.w, "%s %v\n", s.name, v)
	}
}

// histogram writes the cumulative buckets, sum and count of h.
func (s sampler) histogram(h HistogramSnapshot) {
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(s.w, "%s_bucket{%sle=\"%d\"} %d\n", s.name, s.label, bound, cum)
	}
	cum += h.Counts[len(h.Counts)-1]
	fmt.Fprintf(s.w, "%s_bucket{%sle=\"+Inf\"} %d\n", s.name, s.label, cum)
	fmt.Fprintf(s.w, "%s_sum{%s} %d\n", s.name, strings.TrimSuffix(s.label, ","), h.Sum)
	fmt.Fprintf(s.w, "%s_count{%s} %d\n", s.name, strings.TrimSuffix(s.label, ","), h.Count)
}

// opFamily is a family with series per operator of the node; write sees
// the sampler labeled with the operator.
func opFamily(name, typ, help string, write func(s sampler, op OpSnapshot)) family {
	return family{name, typ, help, func(s sampler, n *NodeSnapshot) {
		label := s.label
		for _, op := range n.Snapshot.Operators {
			s.label = label + fmt.Sprintf("op=%q,", op.Name)
			write(s, op)
		}
	}}
}

// engineFamily is a family with series per engine of the node; write sees
// the sampler labeled with the engine.
func engineFamily(name, typ, help string, write func(s sampler, e EngineSnapshot)) family {
	return family{name, typ, help, func(s sampler, n *NodeSnapshot) {
		label := s.label
		for _, e := range n.Snapshot.Engines {
			s.label = label + fmt.Sprintf("engine=\"%d\",", e.Index)
			write(s, e)
		}
	}}
}

// e2eFamily is the end-to-end tuple-latency histogram: per node, and in the
// cluster view also summed over every node.
var e2eFamily = family{"e2e_latency_ns", "histogram", "End-to-end tuple latency, ingest stamp to outlier decision.",
	func(s sampler, n *NodeSnapshot) {
		if n.Snapshot.E2ELatency != nil {
			s.histogram(*n.Snapshot.E2ELatency)
		}
	}}

// nodeFamilies are the families every node contributes, in exposition order.
var nodeFamilies = []family{
	{"uptime_seconds", "gauge", "Seconds since the instrument set was created.",
		func(s sampler, n *NodeSnapshot) { s.sample("", float64(n.Snapshot.UptimeNs)/1e9) }},
	opFamily("op_latency_ns", "histogram", "Per-operator Process latency in nanoseconds.", func(s sampler, op OpSnapshot) {
		if len(op.Latency.Bounds) > 0 {
			s.histogram(op.Latency)
		}
	}),
	opFamily("op_batch_size", "histogram", "Per-operator processed message tuple weight.", func(s sampler, op OpSnapshot) {
		if len(op.BatchSize.Bounds) > 0 {
			s.histogram(op.BatchSize)
		}
	}),
	opFamily("op_queue_depth", "histogram", "Input backlog observed at dequeue.", func(s sampler, op OpSnapshot) {
		if len(op.QueueDepth.Bounds) > 0 {
			s.histogram(op.QueueDepth)
		}
	}),
	opFamily("op_tuples_total", "counter", "Cumulative tuples through each operator.", func(s sampler, op OpSnapshot) {
		if op.Counters != nil {
			s.sample(`dir="in",`, op.Counters.TuplesIn)
			s.sample(`dir="out",`, op.Counters.TuplesOut)
		}
	}),
	opFamily("op_dropped_total", "counter", "Messages dropped on droppable edges.", func(s sampler, op OpSnapshot) {
		if op.Counters != nil {
			s.sample("", op.Counters.Dropped)
		}
	}),
	opFamily("op_queue_len", "gauge", "Current input backlog per operator.", func(s sampler, op OpSnapshot) {
		if op.Counters != nil {
			s.sample("", op.Counters.QueueLen)
		}
	}),
	engineFamily("engine_sigma2", "gauge", "Robust M-scale estimate per engine.",
		func(s sampler, e EngineSnapshot) { s.sample("", e.Sigma2) }),
	engineFamily("engine_eff_n", "gauge", "Forgetting-factor effective sample size.",
		func(s sampler, e EngineSnapshot) { s.sample("", e.EffN) }),
	engineFamily("engine_since_sync", "gauge", "Observations since the engine last synchronized.",
		func(s sampler, e EngineSnapshot) { s.sample("", e.SinceSync) }),
	engineFamily("engine_eigenvalue", "gauge", "Leading eigenvalues of the tracked subspace.", func(s sampler, e EngineSnapshot) {
		for i, v := range e.Eigenvalues {
			s.sample(fmt.Sprintf("rank=\"%d\",", i), v)
		}
	}),
	engineFamily("engine_eigengap", "gauge", "Gap between the p-th and (p+1)-th eigenvalues.",
		func(s sampler, e EngineSnapshot) { s.sample("", e.Eigengap) }),
	engineFamily("engine_outlier_rate", "gauge", "Fraction of observations flagged as outliers.",
		func(s sampler, e EngineSnapshot) { s.sample("", e.OutlierRate) }),
	engineFamily("engine_observations_total", "counter", "Observations processed per engine.",
		func(s sampler, e EngineSnapshot) { s.sample("", e.Observations) }),
	{"sync_rounds_total", "counter", "Planned synchronization rounds.",
		func(s sampler, n *NodeSnapshot) { s.sample("", n.Snapshot.Sync.Rounds) }},
	{"sync_staleness_seconds", "gauge", "Seconds since the last planned sync round.",
		func(s sampler, n *NodeSnapshot) { s.sample("", float64(n.Snapshot.Sync.StalenessNs)/1e9) }},
	{"journal_events", "gauge", "Journal entries retained and lost.", func(s sampler, n *NodeSnapshot) {
		s.sample(`state="retained",`, n.Snapshot.Journal.Len)
		s.sample(`state="dropped",`, n.Snapshot.Journal.Dropped)
	}},
	e2eFamily,
}

// accountingFamilies are the cluster view's per-node merge accounting.
var accountingFamilies = []family{
	{"reports_total", "counter", "Distinct observability reports absorbed per node.",
		func(s sampler, n *NodeSnapshot) { s.sample("", n.Reports) }},
	{"report_dups_total", "counter", "Redelivered reports discarded per node.",
		func(s sampler, n *NodeSnapshot) { s.sample("", n.DupReports) }},
	{"event_gaps_total", "counter", "Journal events the report seq chain proves lost.",
		func(s sampler, n *NodeSnapshot) { s.sample("", n.EventGaps) }},
	{"clock_offset_seconds", "gauge", "Estimated node clock offset onto the coordinator clock.",
		func(s sampler, n *NodeSnapshot) { s.sample("", float64(n.ClockOffsetNs)/1e9) }},
	{"clock_rtt_seconds", "gauge", "Round trip of the kept clock sample (error bound = rtt/2).",
		func(s sampler, n *NodeSnapshot) { s.sample("", float64(n.ClockRTTNs)/1e9) }},
}

// WritePrometheus renders one process's snapshot: every family unlabeled
// under the streampca_ prefix.
func WritePrometheus(w io.Writer, snap Snapshot) {
	writeFamilies(w, "streampca_", nodeFamilies, []NodeSnapshot{{Snapshot: snap}})
}

// WriteClusterPrometheus renders the cluster view: the node count and the
// merged end-to-end histogram unlabeled, then every node's families under
// the streampca_node_ prefix with a node label, so both a per-worker and a
// cluster-wide latency objective are one query away.
func WriteClusterPrometheus(w io.Writer, cs ClusterSnapshot) {
	nodes := family{"cluster_nodes", "gauge", "Nodes visible in the merged cluster view.",
		func(s sampler, _ *NodeSnapshot) { s.sample("", len(cs.Nodes)) }}
	whole := NodeSnapshot{Snapshot: Snapshot{E2ELatency: cs.E2ELatency}}
	writeFamilies(w, "streampca_", []family{nodes, e2eFamily}, []NodeSnapshot{whole})
	writeFamilies(w, "streampca_node_", append(accountingFamilies, nodeFamilies...), cs.Nodes)
}

// writeFamilies renders fams, and then the nodes' ad-hoc gauges and
// counters, over nodes: families outer and nodes inner, so each family is
// declared once and its samples are contiguous. A family no node has a
// sample for is left out. A node with a name is labeled with it.
func writeFamilies(w io.Writer, prefix string, fams []family, nodes []NodeSnapshot) {
	fams = append(fams[:len(fams):len(fams)], namedFamilies(nodes)...)
	var buf bytes.Buffer
	for _, f := range fams {
		buf.Reset()
		s := sampler{w: &buf, name: prefix + f.name}
		for i := range nodes {
			s.label = ""
			if nodes[i].Node != "" {
				s.label = fmt.Sprintf("node=%q,", nodes[i].Node)
			}
			f.write(s, &nodes[i])
		}
		if buf.Len() > 0 {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", s.name, f.help, s.name, f.typ, buf.Bytes())
		}
	}
}

// namedFamilies turns the nodes' ad-hoc gauges and counters into one family
// per name, sorted by name (the wire edges' bytes_per_writev and
// frames_per_writev land here).
func namedFamilies(nodes []NodeSnapshot) []family {
	typ := map[string]string{}
	for _, n := range nodes {
		for k := range n.Snapshot.Gauges {
			typ[k] = "gauge"
		}
		for k := range n.Snapshot.Counters {
			typ[k] = "counter"
		}
	}
	names := make([]string, 0, len(typ))
	for k := range typ {
		names = append(names, k)
	}
	sort.Strings(names)
	fams := make([]family, len(names))
	for i, k := range names {
		fams[i] = family{promName(k), typ[k], "Ad-hoc " + typ[k] + " " + k + ".", func(s sampler, n *NodeSnapshot) {
			if v, ok := n.Snapshot.Gauges[k]; ok {
				s.sample("", v)
			}
			if v, ok := n.Snapshot.Counters[k]; ok {
				s.sample("", v)
			}
		}}
	}
	return fams
}

// promName sanitizes an ad-hoc metric name into the Prometheus charset
// ([a-zA-Z0-9_]); anything else becomes '_'.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
