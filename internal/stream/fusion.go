package stream

import (
	"sort"
	"time"
)

// The paper's §III-D workflow: run with the profiler, inspect per-operator
// load, fuse operators onto processing elements so "they exchange data in
// local memory where possible" while "keeping balanced loads on the
// processors", re-run, repeat. SuggestFusion is that optimizer step:
// a longest-processing-time greedy assignment of operators to PEs by
// measured busy time.

// Placement maps node names to suggested processing-element ids; feed the
// ids to WithPE when rebuilding the graph.
type Placement map[string]int

// SuggestFusion distributes the measured operators across at most pes
// processing elements, balancing cumulative busy time (LPT greedy, which is
// within 4/3 of optimal makespan). Zero-busy operators ride along on the
// least-loaded PE. It panics if pes < 1.
func SuggestFusion(metrics []MetricsSnapshot, pes int) Placement {
	if pes < 1 {
		panic("stream: SuggestFusion needs at least one PE")
	}
	order := make([]MetricsSnapshot, len(metrics))
	copy(order, metrics)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Busy > order[j].Busy })

	load := make([]time.Duration, pes)
	out := make(Placement, len(order))
	for _, m := range order {
		best := 0
		for i := 1; i < pes; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		load[best] += m.Busy
		out[m.Name] = best
	}
	return out
}

// Imbalance reports the makespan ratio of a placement under the measured
// busy times: max PE load / mean PE load (1 = perfectly balanced). Nodes
// missing from the placement are ignored.
func (p Placement) Imbalance(metrics []MetricsSnapshot) float64 {
	if len(p) == 0 {
		return 1
	}
	loads := map[int]time.Duration{}
	var total time.Duration
	for _, m := range metrics {
		pe, ok := p[m.Name]
		if !ok || m.Busy < 0 {
			// Negative busy times (a counter reset racing the snapshot)
			// would corrupt the makespan ratio; skip them.
			continue
		}
		loads[pe] += m.Busy
		total += m.Busy
	}
	if total <= 0 || len(loads) == 0 {
		return 1
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean
}
