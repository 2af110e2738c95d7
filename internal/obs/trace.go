package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// traceEvent is one entry in the Chrome trace-event JSON format
// (chrome://tracing, also loadable at ui.perfetto.dev). Timestamps are
// microseconds relative to the trace epoch.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// traceNode is one node's process in the trace: its operators' spans and
// its journal, stamped on a clock offsetNs behind the trace timeline.
type traceNode struct {
	pid      int
	name     string
	ops      []OpSpans
	events   []Event
	offsetNs int64
}

// WriteTrace renders set's per-operator busy spans and journal as a Chrome
// trace-event document: the trace of a cluster of one node.
func WriteTrace(w io.Writer, set *Set) error {
	return NewClusterCollector(set).WriteTrace(w)
}

// WriteTrace renders the merged cluster trace as one Chrome trace-event
// document. Each node is a process — the local set is pid 1, the workers
// follow from pid 2 in name order — whose operators are named threads of
// complete ("X") Process spans and whose journal entries are instant ("i")
// events on a control-plane thread. Worker timestamps are shifted onto the
// local timeline by the worker's estimated clock offset, and spans are
// emitted in corrected start order per lane, so every lane is monotone. The
// timeline origin is the local set's creation time.
func (cc *ClusterCollector) WriteTrace(w io.Writer) error {
	var nodes []traceNode
	// Without a local set the timeline starts at the earliest corrected
	// worker epoch instead.
	var epoch int64
	cc.mu.Lock()
	for i, name := range cc.sortedNames() {
		n := cc.nodes[name]
		nodes = append(nodes, traceNode{pid: i + 2, name: name, ops: n.last.Spans,
			events: append([]Event(nil), n.events...), offsetNs: n.last.ClockOffsetNs})
		if s := n.last.StartNs + n.last.ClockOffsetNs; epoch == 0 || s < epoch {
			epoch = s
		}
	}
	cc.mu.Unlock()

	if cc.local != nil {
		epoch = cc.local.StartNs()
		local := traceNode{pid: 1, name: CoordinatorNode, events: cc.local.Journal().Events(0)}
		for _, op := range cc.local.opList() {
			local.ops = append(local.ops, OpSpans{Name: op.Name, Spans: op.Spans.Spans()})
		}
		nodes = append([]traceNode{local}, nodes...)
	}

	doc := traceDoc{DisplayTimeUnit: "ms"}
	add := func(ev traceEvent) { doc.TraceEvents = append(doc.TraceEvents, ev) }
	for _, n := range nodes {
		add(traceEvent{Name: "process_name", Ph: "M", Pid: n.pid,
			Args: map[string]any{"name": "streampca " + n.name}})
		add(traceEvent{Name: "thread_name", Ph: "M", Pid: n.pid, Tid: 0,
			Args: map[string]any{"name": "control-plane"}})
		for j, op := range n.ops {
			tid := j + 1
			add(traceEvent{Name: "thread_name", Ph: "M", Pid: n.pid, Tid: tid,
				Args: map[string]any{"name": "op:" + op.Name}})
			// Pre-epoch and torn slots are skipped.
			spans := make([]Span, 0, len(op.Spans))
			for _, sp := range op.Spans {
				if start := sp.StartNs + n.offsetNs; sp.StartNs != 0 && start >= epoch {
					spans = append(spans, Span{StartNs: start, DurNs: sp.DurNs})
				}
			}
			sort.Slice(spans, func(a, b int) bool { return spans[a].StartNs < spans[b].StartNs })
			for _, sp := range spans {
				add(traceEvent{Name: "process", Ph: "X", Pid: n.pid, Tid: tid,
					Ts: float64(sp.StartNs-epoch) / 1e3, Dur: float64(sp.DurNs) / 1e3})
			}
		}
		for _, ev := range n.events {
			args := map[string]any{"seq": ev.Seq, "n": ev.N, "a": ev.A, "b": ev.B}
			if ev.Node != "" {
				args["node"] = ev.Node
			}
			if ev.Engine >= 0 {
				args["engine"] = ev.Engine
			}
			// An event stamped before the timeline origin is clamped to it.
			add(traceEvent{Name: ev.Kind.String(), Ph: "i", Pid: n.pid, S: "t", Args: args,
				Ts: max(float64(ev.TimeNs+n.offsetNs-epoch)/1e3, 0)})
		}
	}
	return json.NewEncoder(w).Encode(&doc)
}
