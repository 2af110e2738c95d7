package main

import (
	"bytes"
	"encoding/json"
	"os"
	"time"

	"streampca"
)

// span is one interval the benchmark recorded around its own calls into the
// system. Spans are held in memory and written when the segment ends.
type span struct {
	id, parent int
	name       string
	start      time.Time
	dur        time.Duration
	args       map[string]any
}

// recorder collects spans; a nil recorder records nothing, which is how the
// untraced segments run.
type recorder struct {
	spans []span
}

// begin opens a span caused by parent (0 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, start: time.Now()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.dur = time.Since(s.start)
}

// add records an already measured span, such as the time inside Source
// summed over a batch of pulls.
func (r *recorder) add(name string, parent int, start time.Time, dur time.Duration, args map[string]any) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, start: start, dur: dur, args: args})
}

// write merges the benchmark's spans into the program's own Chrome trace
// document (operator busy spans and journal events, from WriteObsTrace) as a
// second process lane on the same timeline, and writes it to path. Open the
// file at chrome://tracing or ui.perfetto.dev.
func (r *recorder) write(path string, set *streampca.ObsSet) error {
	var buf bytes.Buffer
	if err := streampca.WriteObsTrace(&buf, set); err != nil {
		return err
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return err
	}
	const pid = 2
	doc.TraceEvents = append(doc.TraceEvents,
		map[string]any{"name": "process_name", "ph": "M", "pid": pid, "args": map[string]any{"name": "benchmark"}})
	epoch := set.StartNs()
	for _, s := range r.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		// Pulls overlap the run that causes them, so they get a lane of
		// their own; the viewer nests only spans that share a lane.
		tid := 1
		if s.name == spanPull {
			tid = 2
		}
		doc.TraceEvents = append(doc.TraceEvents, map[string]any{
			"name": s.name, "ph": "X", "pid": pid, "tid": tid,
			"ts":   float64(s.start.UnixNano()-epoch) / 1e3,
			"dur":  float64(s.dur) / 1e3,
			"args": args,
		})
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
