package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the benchmark re-execute the test binary the way it
// re-executes itself: as a wire worker, a segment, or the layer timings.
func TestMain(m *testing.M) {
	if ran, err := reexec(); ran {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json and the tables the program
// prints from to each other: same workloads, same metrics in the same order,
// same units, directions and bounds.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, code %q", i, m.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, g, d)
			}
			if (g.Bound != nil) != (d.bound > 0) || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from code's %v", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// captureReport returns what report prints for r.
func captureReport(t *testing.T, r *runResult, defs []metricDef) string {
	t.Helper()
	var out strings.Builder
	if err := report(&out, r, defs); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// checkReport asserts that every metric of defs is printed exactly once with
// its unit, and that the last line is the driver's object with exactly those
// metrics.
func checkReport(t *testing.T, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, d := range defs {
		var n int
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s printed %d times with unit %s, want once", d.name, n, d.unit)
		}
	}
	var last resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(last.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(last.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := last.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("result line: %s = %+v (present %v), want unit %s", d.name, v, ok, d.unit)
		}
	}
	if last.Attempted < 1 || last.Failed != 0 || !last.Correct {
		t.Errorf("result line: correct %v, attempted %d, failed %d", last.Correct, last.Attempted, last.Failed)
	}
}

// TestWorkloadsSmoke runs every workload at about a hundredth of its size,
// untraced and traced, through the same code as the driver's command.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, 1, options{seconds: 0.3, reps: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.Problems {
				t.Error("check failed:", p)
			}
			for _, d := range endToEnd {
				if !(r.Metrics[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name])
				}
			}
			checkReport(t, captureReport(t, r, endToEnd), endToEnd)

			r, err = traced(w, 1, options{seconds: 0.5, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.Problems {
				t.Error("check failed:", p)
			}
			checkReport(t, captureReport(t, r, perLayer), perLayer)
			M := r.Metrics
			if w.wire != (M["wire.bytes_per_tuple"] > 0) || w.spectra != (M["ingest.pull_us"] > 0) {
				t.Errorf("wire.bytes_per_tuple %v, ingest.pull_us %v: a layer works where it should idle, or idles where it should work",
					M["wire.bytes_per_tuple"], M["ingest.pull_us"])
			}
			if want := 1000.0; w.batch == 0 && M["stream.msgs_per_ktuple"] != want {
				t.Errorf("stream.msgs_per_ktuple = %v, want %v unbatched", M["stream.msgs_per_ktuple"], want)
			}
			var doc struct{ TraceEvents []map[string]any }
			raw, err := os.ReadFile(dir + "/trace-" + w.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			names := map[string]int{}
			for _, ev := range doc.TraceEvents {
				if ev["ph"] == "X" {
					names[ev["name"].(string)]++
				}
			}
			for _, want := range []string{spanGenerate, spanRun, spanPull, "process"} {
				if names[want] == 0 {
					t.Errorf("trace has no %q span (have %v)", want, names)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || median(xs) != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 5.5, 8.25", q1, median(xs), q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	tps := metricDef{name: "t", higher: true, bound: 0.10}
	cpu := metricDef{name: "c", bound: 0.10}
	for _, c := range []struct {
		m            metricDef
		base, change []float64
		want         string
	}{
		{tps, []float64{100, 101, 102}, []float64{100, 102, 101}, "unchanged"},
		{tps, []float64{100, 101, 102}, []float64{110, 111, 112}, "better"},
		{tps, []float64{100, 101, 102}, []float64{85, 86, 87}, "worse"},
		{cpu, []float64{100, 101, 102}, []float64{115, 116, 117}, "worse"},
		{cpu, []float64{100, 101, 102}, []float64{90, 91, 92}, "better"},
		{tps, []float64{80, 100, 120, 101}, []float64{95, 99, 125, 70}, "unresolved"},
		{tps, nil, []float64{1}, "missing"},
	} {
		if got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.name, c.base, c.change, got, c.want)
		}
	}
}
