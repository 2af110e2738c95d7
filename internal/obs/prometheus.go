package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

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

func promHistogram(w io.Writer, name, labels string, h HistogramSnapshot) {
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, labels, bound, cum)
	}
	cum += h.Counts[len(h.Counts)-1]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %d\n", name, strings.TrimSuffix(labels, ","), h.Sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, strings.TrimSuffix(labels, ","), h.Count)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4).
func WritePrometheus(w io.Writer, snap Snapshot) {
	fmt.Fprintf(w, "# HELP streampca_uptime_seconds Seconds since the instrument set was created.\n")
	fmt.Fprintf(w, "# TYPE streampca_uptime_seconds gauge\n")
	fmt.Fprintf(w, "streampca_uptime_seconds %g\n", float64(snap.UptimeNs)/1e9)

	if len(snap.Operators) > 0 {
		fmt.Fprintf(w, "# HELP streampca_op_latency_ns Per-operator Process latency in nanoseconds.\n")
		fmt.Fprintf(w, "# TYPE streampca_op_latency_ns histogram\n")
		for _, op := range snap.Operators {
			if op.Latency.Count > 0 || len(op.Latency.Bounds) > 0 {
				promHistogram(w, "streampca_op_latency_ns", fmt.Sprintf("op=%q,", op.Name), op.Latency)
			}
		}
		fmt.Fprintf(w, "# HELP streampca_op_batch_size Per-operator processed message tuple weight.\n")
		fmt.Fprintf(w, "# TYPE streampca_op_batch_size histogram\n")
		for _, op := range snap.Operators {
			if len(op.BatchSize.Bounds) > 0 {
				promHistogram(w, "streampca_op_batch_size", fmt.Sprintf("op=%q,", op.Name), op.BatchSize)
			}
		}
		fmt.Fprintf(w, "# HELP streampca_op_queue_depth Input backlog observed at dequeue.\n")
		fmt.Fprintf(w, "# TYPE streampca_op_queue_depth histogram\n")
		for _, op := range snap.Operators {
			if len(op.QueueDepth.Bounds) > 0 {
				promHistogram(w, "streampca_op_queue_depth", fmt.Sprintf("op=%q,", op.Name), op.QueueDepth)
			}
		}
		fmt.Fprintf(w, "# HELP streampca_op_tuples_total Cumulative tuples through each operator.\n")
		fmt.Fprintf(w, "# TYPE streampca_op_tuples_total counter\n")
		for _, op := range snap.Operators {
			if op.Counters == nil {
				continue
			}
			fmt.Fprintf(w, "streampca_op_tuples_total{op=%q,dir=\"in\"} %d\n", op.Name, op.Counters.TuplesIn)
			fmt.Fprintf(w, "streampca_op_tuples_total{op=%q,dir=\"out\"} %d\n", op.Name, op.Counters.TuplesOut)
		}
		fmt.Fprintf(w, "# HELP streampca_op_dropped_total Messages dropped on droppable edges.\n")
		fmt.Fprintf(w, "# TYPE streampca_op_dropped_total counter\n")
		for _, op := range snap.Operators {
			if op.Counters != nil {
				fmt.Fprintf(w, "streampca_op_dropped_total{op=%q} %d\n", op.Name, op.Counters.Dropped)
			}
		}
		fmt.Fprintf(w, "# HELP streampca_op_queue_len Current input backlog per operator.\n")
		fmt.Fprintf(w, "# TYPE streampca_op_queue_len gauge\n")
		for _, op := range snap.Operators {
			if op.Counters != nil {
				fmt.Fprintf(w, "streampca_op_queue_len{op=%q} %d\n", op.Name, op.Counters.QueueLen)
			}
		}
	}

	if len(snap.Engines) > 0 {
		fmt.Fprintf(w, "# HELP streampca_engine_sigma2 Robust M-scale estimate per engine.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_sigma2 gauge\n")
		for _, e := range snap.Engines {
			fmt.Fprintf(w, "streampca_engine_sigma2{engine=\"%d\"} %g\n", e.Index, e.Sigma2)
		}
		fmt.Fprintf(w, "# HELP streampca_engine_eff_n Forgetting-factor effective sample size.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_eff_n gauge\n")
		for _, e := range snap.Engines {
			fmt.Fprintf(w, "streampca_engine_eff_n{engine=\"%d\"} %g\n", e.Index, e.EffN)
		}
		fmt.Fprintf(w, "# HELP streampca_engine_since_sync Observations since the engine last synchronized.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_since_sync gauge\n")
		for _, e := range snap.Engines {
			fmt.Fprintf(w, "streampca_engine_since_sync{engine=\"%d\"} %g\n", e.Index, e.SinceSync)
		}
		fmt.Fprintf(w, "# HELP streampca_engine_eigenvalue Leading eigenvalues of the tracked subspace.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_eigenvalue gauge\n")
		for _, e := range snap.Engines {
			for i, v := range e.Eigenvalues {
				fmt.Fprintf(w, "streampca_engine_eigenvalue{engine=\"%d\",rank=\"%d\"} %g\n", e.Index, i, v)
			}
		}
		fmt.Fprintf(w, "# HELP streampca_engine_eigengap Gap between the p-th and (p+1)-th eigenvalues.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_eigengap gauge\n")
		for _, e := range snap.Engines {
			fmt.Fprintf(w, "streampca_engine_eigengap{engine=\"%d\"} %g\n", e.Index, e.Eigengap)
		}
		fmt.Fprintf(w, "# HELP streampca_engine_outlier_rate Fraction of observations flagged as outliers.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_outlier_rate gauge\n")
		for _, e := range snap.Engines {
			fmt.Fprintf(w, "streampca_engine_outlier_rate{engine=\"%d\"} %g\n", e.Index, e.OutlierRate)
		}
		fmt.Fprintf(w, "# HELP streampca_engine_observations_total Observations processed per engine.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_observations_total counter\n")
		for _, e := range snap.Engines {
			fmt.Fprintf(w, "streampca_engine_observations_total{engine=\"%d\"} %d\n", e.Index, e.Observations)
		}
		fmt.Fprintf(w, "# HELP streampca_engine_rebuilds_total Eigensystem rebuilds by route.\n")
		fmt.Fprintf(w, "# TYPE streampca_engine_rebuilds_total counter\n")
		for _, e := range snap.Engines {
			fmt.Fprintf(w, "streampca_engine_rebuilds_total{engine=\"%d\",kind=\"rank-one\"} %d\n", e.Index, e.Rebuilds.RankOne)
			fmt.Fprintf(w, "streampca_engine_rebuilds_total{engine=\"%d\",kind=\"rank-c\"} %d\n", e.Index, e.Rebuilds.RankC)
		}
	}

	fmt.Fprintf(w, "# HELP streampca_sync_rounds_total Planned synchronization rounds.\n")
	fmt.Fprintf(w, "# TYPE streampca_sync_rounds_total counter\n")
	fmt.Fprintf(w, "streampca_sync_rounds_total %d\n", snap.Sync.Rounds)
	fmt.Fprintf(w, "# HELP streampca_sync_staleness_seconds Seconds since the last planned sync round.\n")
	fmt.Fprintf(w, "# TYPE streampca_sync_staleness_seconds gauge\n")
	fmt.Fprintf(w, "streampca_sync_staleness_seconds %g\n", float64(snap.Sync.StalenessNs)/1e9)

	fmt.Fprintf(w, "# HELP streampca_journal_events Journal entries retained and lost.\n")
	fmt.Fprintf(w, "# TYPE streampca_journal_events gauge\n")
	fmt.Fprintf(w, "streampca_journal_events{state=\"retained\"} %d\n", snap.Journal.Len)
	fmt.Fprintf(w, "streampca_journal_events{state=\"dropped\"} %d\n", snap.Journal.Dropped)

	for _, kv := range sortedGauges(snap.Gauges) {
		fmt.Fprintf(w, "streampca_%s %g\n", promName(kv.k), kv.v)
	}
	for _, kv := range sortedCounters(snap.Counters) {
		fmt.Fprintf(w, "streampca_%s %d\n", promName(kv.k), kv.v)
	}
}

type gaugeKV struct {
	k string
	v float64
}

type counterKV struct {
	k string
	v int64
}

func sortedGauges(m map[string]float64) []gaugeKV {
	out := make([]gaugeKV, 0, len(m))
	for k, v := range m {
		out = append(out, gaugeKV{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

func sortedCounters(m map[string]int64) []counterKV {
	out := make([]counterKV, 0, len(m))
	for k, v := range m {
		out = append(out, counterKV{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}
