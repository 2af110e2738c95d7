// Command obscheck is the end-to-end acceptance harness for the
// observability subsystem: it builds cmd/streampca, runs an instrumented
// parallel pipeline with -obs, and validates every exposition surface over
// real HTTP — the JSON snapshot, the Prometheus text format, the event
// journal, the Chrome trace document, and the /cluster/* view of the one
// process as a cluster of one node. It exits non-zero on the first contract
// violation, which is what `make obs-check` gates on.
//
// With -wire it instead boots a real 2-worker localhost TCP cluster (two
// streampca -worker processes with periodic obs-reports, one coordinator
// with -peers) and validates the cluster surface: the merged
// /cluster/metrics.json snapshot, the node-labeled Prometheus text, and the
// skew-corrected merged /cluster/trace.json timeline.
//
// Usage:
//
//	obscheck                  # build ./cmd/streampca and probe it
//	obscheck -bin ./streampca # probe a prebuilt binary
//	obscheck -wire            # probe the 2-worker cluster surface
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

func main() {
	bin := flag.String("bin", "", "prebuilt streampca binary (default: go build ./cmd/streampca)")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline")
	wireMode := flag.Bool("wire", false, "validate the distributed cluster observability surface on a 2-worker localhost cluster")
	flag.Parse()

	if *wireMode {
		if err := runWire(*bin, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("obscheck: PASS — cluster JSON, node-labeled Prometheus and merged trace all valid")
		return
	}
	if err := run(*bin, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "obscheck: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obscheck: PASS — JSON, Prometheus, journal, trace and cluster-of-one endpoints all valid")
}

// buildBin compiles cmd/streampca into a temp dir when no prebuilt binary
// was given; cleanup is a no-op for a prebuilt one.
func buildBin(bin string) (string, func(), error) {
	if bin != "" {
		return bin, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "obscheck")
	if err != nil {
		return "", nil, err
	}
	bin = filepath.Join(dir, "streampca")
	build := exec.Command("go", "build", "-o", bin, "./cmd/streampca")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("building streampca: %w", err)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}

func run(bin string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)

	bin, cleanup, err := buildBin(bin)
	if err != nil {
		return err
	}
	defer cleanup()

	// A short parallel run with sync on, held open afterwards so the probes
	// read a drained, fully populated pipeline.
	cmd := exec.Command(bin,
		"-synthetic", "signal", "-n", "12000", "-d", "100", "-p", "3",
		"-engines", "2", "-sync", "2ms",
		"-obs", "127.0.0.1:0", "-obswait")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	base, err := awaitServer(stdout, deadline)
	if err != nil {
		return err
	}
	fmt.Println("obscheck: probing", base)

	checks := []struct {
		name string
		fn   func(string) error
	}{
		{"metrics.json", checkJSON},
		{"prometheus", checkPrometheus},
		{"journal", checkJournal},
		{"trace.json", checkTrace},
		{"cluster of one", checkClusterOfOne},
	}
	for _, c := range checks {
		if err := retryUntil(deadline, func() error { return c.fn(base) }); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Println("obscheck: ok", c.name)
	}
	return nil
}

// awaitServer scans the child's stdout for the served address and then for
// the end-of-run marker, so every probe sees the finished pipeline.
func awaitServer(stdout io.Reader, deadline time.Time) (string, error) {
	urlRe := regexp.MustCompile(`observability on (http://[^/\s]+)/`)
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println("  |", line)
		if m := urlRe.FindStringSubmatch(line); m != nil {
			base = m[1]
		}
		if strings.Contains(line, "run finished") {
			if base == "" {
				return "", fmt.Errorf("run finished but no served address was printed")
			}
			// Keep draining in the background so the child never blocks on a
			// full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return base, nil
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("streampca exited before serving observability")
}

func retryUntil(deadline time.Time, fn func() error) error {
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// checkJSON validates the structured snapshot: per-operator histograms with
// samples, per-engine gauges with eigenvalues, and sync activity.
func checkJSON(base string) error {
	body, err := get(base + "/metrics.json")
	if err != nil {
		return err
	}
	var snap struct {
		Operators []struct {
			Name    string `json:"name"`
			Latency struct {
				Count int64 `json:"count"`
			} `json:"latency_ns"`
		} `json:"operators"`
		Engines []struct {
			Index        int       `json:"index"`
			Sigma2       float64   `json:"sigma2"`
			Eigenvalues  []float64 `json:"eigenvalues"`
			Observations int64     `json:"observations"`
		} `json:"engines"`
		Sync struct {
			Rounds int64 `json:"rounds"`
		} `json:"sync"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if len(snap.Operators) < 4 {
		return fmt.Errorf("only %d operators in snapshot", len(snap.Operators))
	}
	var sampled int
	for _, op := range snap.Operators {
		if op.Latency.Count > 0 {
			sampled++
		}
	}
	if sampled < 3 {
		return fmt.Errorf("only %d operators recorded latency samples", sampled)
	}
	if len(snap.Engines) != 2 {
		return fmt.Errorf("%d engines in snapshot, want 2", len(snap.Engines))
	}
	for _, en := range snap.Engines {
		if en.Sigma2 <= 0 || len(en.Eigenvalues) == 0 || en.Observations == 0 {
			return fmt.Errorf("engine %d gauges incomplete: %+v", en.Index, en)
		}
	}
	if snap.Sync.Rounds == 0 {
		return fmt.Errorf("no sync rounds recorded")
	}
	return nil
}

// checkPrometheus validates the text exposition: the op histogram series,
// the engine gauges, and well-formed TYPE comments.
func checkPrometheus(base string) error {
	body, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE streampca_op_latency_ns histogram",
		`streampca_op_latency_ns_bucket{op="pca0",le="+Inf"}`,
		"streampca_op_latency_ns_count",
		`streampca_engine_sigma2{engine="0"}`,
		`streampca_engine_eigenvalue{engine="1",rank="0"}`,
		"streampca_sync_rounds_total",
		"streampca_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("missing %q", want)
		}
	}
	return nil
}

// checkJournal validates the control-plane event feed, including the ?max
// parameter, and that the full feed holds every engine's engine-init event.
func checkJournal(base string) error {
	inits := map[int]bool{}
	for _, query := range []string{"", "?max=8"} {
		body, err := get(base + "/journal" + query)
		if err != nil {
			return err
		}
		var j struct {
			Len    int `json:"len"`
			Events []struct {
				Kind   string `json:"kind"`
				Engine int    `json:"engine"`
			} `json:"events"`
		}
		if err := json.Unmarshal(body, &j); err != nil {
			return fmt.Errorf("invalid JSON: %w", err)
		}
		if j.Len == 0 || len(j.Events) == 0 {
			return fmt.Errorf("journal is empty")
		}
		if query != "" && len(j.Events) > 8 {
			return fmt.Errorf("max=8 returned %d events", len(j.Events))
		}
		for _, ev := range j.Events {
			if ev.Kind == "" {
				return fmt.Errorf("event with empty kind")
			}
			inits[ev.Engine] = inits[ev.Engine] || ev.Kind == "engine-init"
		}
	}
	if !inits[0] || !inits[1] {
		return fmt.Errorf("no engine-init event for engines 0 and 1 in /journal")
	}
	return nil
}

// checkTrace validates the Chrome trace document: complete spans, thread
// metadata, and at least one control-plane instant.
func checkTrace(base string) error {
	body, err := get(base + "/trace.json")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
	}
	if counts["X"] == 0 {
		return fmt.Errorf("no complete spans (ph=X) in trace")
	}
	if counts["M"] == 0 {
		return fmt.Errorf("no metadata events (ph=M) in trace")
	}
	if counts["i"] == 0 {
		return fmt.Errorf("no instant events (ph=i) in trace")
	}
	return nil
}

// checkClusterOfOne validates the cluster view of a single process: exactly
// one node, the coordinator, in both the JSON and the Prometheus text.
func checkClusterOfOne(base string) error {
	body, err := get(base + "/cluster/metrics.json")
	if err != nil {
		return err
	}
	var cs clusterView
	if err := json.Unmarshal(body, &cs); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if len(cs.Nodes) != 1 || cs.Nodes[0].Node != "coordinator" {
		return fmt.Errorf("cluster view of one process has %d nodes, want only coordinator", len(cs.Nodes))
	}
	if len(cs.Nodes[0].Snapshot.Engines) != 2 {
		return fmt.Errorf("coordinator node has %d engines, want 2", len(cs.Nodes[0].Snapshot.Engines))
	}
	body, err = get(base + "/cluster/metrics")
	if err != nil {
		return err
	}
	text := string(body)
	for _, want := range []string{
		"streampca_cluster_nodes 1\n",
		`streampca_node_engine_sigma2{node="coordinator",engine="1"}`,
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("/cluster/metrics missing %q", want)
		}
	}
	return nil
}

// runWire boots two streampca -worker processes with periodic obs-reports,
// drives a batched distributed run through them from a -peers coordinator,
// and validates the coordinator's /cluster/* surface.
func runWire(bin string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)

	bin, cleanup, err := buildBin(bin)
	if err != nil {
		return err
	}
	defer cleanup()

	var addrs []string
	for i := 0; i < 2; i++ {
		addr, err := startWorker(bin, deadline)
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		addrs = append(addrs, addr)
	}
	fmt.Println("obscheck: workers on", strings.Join(addrs, " "))

	// Batched transport so frames carry trace stamps (frames of one are
	// untraced), sync on so the journal and sync plane have content, and
	// -obswait so every probe reads the drained cluster.
	cmd := exec.Command(bin,
		"-synthetic", "signal", "-n", "12000", "-d", "64", "-p", "3",
		"-batch", "16", "-sync", "2ms",
		"-peers", strings.Join(addrs, ","),
		"-obs", "127.0.0.1:0", "-obswait")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	base, err := awaitServer(stdout, deadline)
	if err != nil {
		return err
	}
	fmt.Println("obscheck: probing", base)

	checks := []struct {
		name string
		fn   func(string) error
	}{
		{"cluster/metrics.json", checkClusterJSON},
		{"cluster/prometheus", checkClusterPrometheus},
		{"cluster/trace.json", checkClusterTrace},
	}
	for _, c := range checks {
		if err := retryUntil(deadline, func() error { return c.fn(base) }); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Println("obscheck: ok", c.name)
	}
	return nil
}

// startWorker spawns one wire worker with a fast report period and returns
// its scraped listen address.
func startWorker(bin string, deadline time.Time) (string, error) {
	cmd := exec.Command(bin, "-worker", "-listen", "127.0.0.1:0",
		"-d", "64", "-p", "3", "-sessions", "1", "-report", "25ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", err
	}
	readyRe := regexp.MustCompile(`wire worker listening on (\S+)`)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println("  |", line)
		if m := readyRe.FindStringSubmatch(line); m != nil {
			go func() {
				for sc.Scan() {
				}
				cmd.Wait()
			}()
			return m[1], nil
		}
		if time.Now().After(deadline) {
			break
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return "", fmt.Errorf("worker exited before its ready line (%v)", sc.Err())
}

// clusterView mirrors the /cluster/metrics.json shape obscheck cares about.
type clusterView struct {
	Nodes []struct {
		Node       string `json:"node"`
		Reports    int64  `json:"reports"`
		ReportSeq  int64  `json:"report_seq"`
		DupReports int64  `json:"dup_reports"`
		EventGaps  int64  `json:"event_gaps"`
		ClockRTTNs int64  `json:"clock_rtt_ns"`
		Snapshot   struct {
			Engines []struct {
				Observations int64 `json:"observations"`
			} `json:"engines"`
			Journal struct {
				Len int `json:"len"`
			} `json:"journal"`
			E2ELatency *struct {
				Count int64 `json:"count"`
			} `json:"e2e_latency_ns"`
		} `json:"snapshot"`
	} `json:"nodes"`
	E2ELatency *struct {
		Count int64 `json:"count"`
	} `json:"e2e_latency_ns"`
}

// checkClusterJSON validates the merged snapshot: coordinator plus both
// workers present, reports flowing, a bounded clock estimate per worker,
// engine progress, and a merged cross-process end-to-end histogram.
func checkClusterJSON(base string) error {
	body, err := get(base + "/cluster/metrics.json")
	if err != nil {
		return err
	}
	var cs clusterView
	if err := json.Unmarshal(body, &cs); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	byNode := map[string]bool{}
	for _, n := range cs.Nodes {
		byNode[n.Node] = true
	}
	for _, want := range []string{"coordinator", "worker-0", "worker-1"} {
		if !byNode[want] {
			return fmt.Errorf("node %q missing from cluster view (have %v)", want, byNode)
		}
	}
	var e2eTotal int64
	for _, n := range cs.Nodes {
		if n.Node == "coordinator" {
			continue
		}
		if n.Reports < 1 || n.ReportSeq < 1 {
			return fmt.Errorf("%s: no reports absorbed (%d, seq %d)", n.Node, n.Reports, n.ReportSeq)
		}
		if n.ClockRTTNs <= 0 {
			return fmt.Errorf("%s: no clock sample kept (rtt %d)", n.Node, n.ClockRTTNs)
		}
		var obs int64
		for _, e := range n.Snapshot.Engines {
			obs += e.Observations
		}
		if obs == 0 {
			return fmt.Errorf("%s: engine reported no observations", n.Node)
		}
		if n.Snapshot.E2ELatency == nil || n.Snapshot.E2ELatency.Count == 0 {
			return fmt.Errorf("%s: no end-to-end latency samples", n.Node)
		}
		e2eTotal += n.Snapshot.E2ELatency.Count
	}
	if cs.E2ELatency == nil || cs.E2ELatency.Count < e2eTotal {
		return fmt.Errorf("merged e2e histogram incomplete: %+v vs per-node total %d", cs.E2ELatency, e2eTotal)
	}
	return nil
}

// checkClusterPrometheus validates the node-labeled text exposition,
// including the wire transport gauges surfacing under every node.
func checkClusterPrometheus(base string) error {
	body, err := get(base + "/cluster/metrics")
	if err != nil {
		return err
	}
	text := string(body)
	for _, want := range []string{
		"streampca_cluster_nodes 3",
		`streampca_node_reports_total{node="worker-0"}`,
		`streampca_node_reports_total{node="worker-1"}`,
		`streampca_node_clock_offset_seconds{node="worker-0"}`,
		`streampca_node_clock_rtt_seconds{node="worker-1"}`,
		`streampca_node_engine_observations_total{node="worker-0",engine=`,
		`streampca_node_op_latency_ns_bucket{node="coordinator",op="wire-send-0",le=`,
		`streampca_node_wire_wire_0_bytes_per_writev{node="coordinator"}`,
		`streampca_node_wire_wire_worker_bytes_per_writev{node="worker-0"}`,
		"# TYPE streampca_e2e_latency_ns histogram",
		`streampca_node_e2e_latency_ns_count{node="worker-0"}`,
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("missing %q", want)
		}
	}
	return nil
}

// checkClusterTrace validates the merged timeline: one process per node,
// spans from more than one process, and per-lane monotone timestamps after
// skew correction.
func checkClusterTrace(base string) error {
	body, err := get(base + "/cluster/trace.json")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	procs := map[int]string{}
	spansPerPid := map[int]int{}
	lastTs := map[[2]int]float64{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			if name, ok := ev.Args["name"].(string); ok {
				procs[ev.Pid] = name
			}
		case ev.Ph == "X":
			spansPerPid[ev.Pid]++
			lane := [2]int{ev.Pid, ev.Tid}
			if ev.Ts < lastTs[lane] {
				return fmt.Errorf("lane pid=%d tid=%d not monotone: %v after %v", ev.Pid, ev.Tid, ev.Ts, lastTs[lane])
			}
			lastTs[lane] = ev.Ts
			if ev.Ts < 0 {
				return fmt.Errorf("span before the trace epoch: ts=%v pid=%d", ev.Ts, ev.Pid)
			}
		}
	}
	if len(procs) < 3 {
		return fmt.Errorf("only %d processes in merged trace, want 3: %v", len(procs), procs)
	}
	withSpans := 0
	for _, c := range spansPerPid {
		if c > 0 {
			withSpans++
		}
	}
	if withSpans < 2 {
		return fmt.Errorf("spans from only %d process(es); cross-process merge missing", withSpans)
	}
	return nil
}
