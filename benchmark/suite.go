package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// header records what a set of runs was measured on.
type header struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Reps       int     `json:"segments_per_run"`
	Runs       int     `json:"runs"`
	LoadAvg    float64 `json:"loadavg_1m"`
	Time       string  `json:"time"`
}

func firstLineWith(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

func newHeader(seed uint64, o options, runs int) header {
	h := header{
		Commit: "unknown", Go: runtime.Version(), CPU: firstLineWith("/proc/cpuinfo", "model name"),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: o.seconds, Reps: o.reps, Runs: runs,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; there the commit stays
	// unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.LoadAvg, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

func (h header) print() {
	fmt.Printf("# commit %s  %s  %s  nproc %d  GOMAXPROCS %d  seed %d  loadavg %.2f\n",
		h.Commit, h.Go, h.CPU, h.NumCPU, h.GOMAXPROCS, h.Seed, h.LoadAvg)
	if h.LoadAvg > 0.5 {
		fmt.Printf("# warning: load average %.2f > 0.5 at start; another process is competing for the %d cores\n", h.LoadAvg, h.NumCPU)
	}
}

// summary is one end-to-end metric of one workload over the runs of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Runs   []float64 `json:"runs"`
}

func summarize(unit string, runs []float64) summary {
	q1, q3 := quartiles(runs)
	return summary{Unit: unit, Median: median(runs), Q1: q1, Q3: q3, N: len(runs), Runs: runs}
}

// workloadResult is everything a set measured for one workload.
type workloadResult struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// set is one full pass: every workload, runs untraced runs and one traced run.
type set struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// resultFile is what the benchmark writes and compare reads: one set, or the
// two of a self-check.
type resultFile struct {
	Sets []*set `json:"sets"`
}

// runSet measures one set. Untraced runs go round-robin over the workloads
// (A B C D E, A B C D E, …) so that drift of the machine hits all alike, after
// one discarded warm-up segment each; the traced runs follow.
func runSet(seed uint64, o options, runs int) (*set, error) {
	s := &set{Header: newHeader(seed, o, runs), Workloads: map[string]*workloadResult{}}
	s.Header.print()
	cols := map[string]map[string][]float64{}
	for _, w := range workloads {
		s.Workloads[w.name] = &workloadResult{EndToEnd: map[string]summary{}, PerLayer: map[string]metricValue{}}
		cols[w.name] = map[string][]float64{}
		if _, err := segment(w, seed, o.seconds/float64(o.reps), segSpec{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ok := true
	tally := func(w workload, r *runResult) {
		wr := s.Workloads[w.name]
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, p := range r.Problems {
			ok = false
			fmt.Printf("%s: check failed: %s\n", w.name, p)
		}
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			r, err := measure(w, seed, o)
			if err != nil {
				return nil, err
			}
			tally(w, r)
			fmt.Printf("run %d/%d %-20s", i+1, runs, w.name)
			for _, m := range endToEnd {
				cols[w.name][m.name] = append(cols[w.name][m.name], r.Metrics[m.name])
				fmt.Printf("  %s %.6g", m.name, r.Metrics[m.name])
			}
			fmt.Println()
		}
	}
	for _, w := range workloads {
		r, err := traced(w, seed, o)
		if err != nil {
			return nil, err
		}
		tally(w, r)
		wr := s.Workloads[w.name]
		for _, m := range perLayer {
			wr.PerLayer[m.name] = metricValue{Value: r.Metrics[m.name], Unit: m.unit}
		}
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = summarize(m.unit, cols[w.name][m.name])
		}
	}
	s.print()
	if !ok {
		return s, fmt.Errorf("correctness checks failed")
	}
	return s, nil
}

// print writes every metric of every workload by name with its unit.
func (s *set) print() {
	for _, w := range workloads {
		wr := s.Workloads[w.name]
		fmt.Printf("\n== %s  (%d tuples attempted, %d failed, failed_share %.3g)\n", w.name, wr.Attempted, wr.Failed,
			float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		for _, m := range endToEnd {
			e := wr.EndToEnd[m.name]
			fmt.Printf("  %-34s %14.6g %-9s q1 %.6g  q3 %.6g  n %d\n", m.name, e.Median, e.Unit, e.Q1, e.Q3, e.N)
		}
		for _, m := range perLayer {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, wr.PerLayer[m.name].Value, m.unit)
		}
	}
}

func writeResult(path string, f resultFile) error {
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// selfCheck runs two sets of the same binary and reports every end-to-end
// metric whose two medians disagree by more than the metric's bound.
func selfCheck(seed uint64, o options, runs int) (resultFile, error) {
	var f resultFile
	for i := 0; i < 2; i++ {
		s, err := runSet(seed, o, runs)
		if err != nil {
			return f, err
		}
		f.Sets = append(f.Sets, s)
	}
	var bad int
	fmt.Println("\n== self-check: set 2 against set 1")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := f.Sets[0].Workloads[w.name].EndToEnd[m.name].Median, f.Sets[1].Workloads[w.name].EndToEnd[m.name].Median
			diff := (b - a) / a
			verdict := "ok"
			if diff > m.bound || diff < -m.bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("  %-20s %-18s %12.6g %12.6g  %+6.2f%%  bound %.0f%%  %s\n", w.name, m.name, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return f, fmt.Errorf("self-check: %d end-to-end metrics disagree beyond their bound", bad)
	}
	return f, nil
}
