package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// segmentsPerRun is how many fresh-process segments an untraced run splits its
// time into; the run's value of a metric is their median.
const segmentsPerRun = 5

// options sizes one run of a workload.
type options struct {
	// seconds is how long the run measures. An untraced run splits it into
	// reps segments, a traced run into five parts (see traced).
	seconds float64
	reps    int
	// outDir receives the Chrome trace of a traced run.
	outDir string
}

// runResult is one run of one workload: every end-to-end metric (untraced)
// or every per-layer metric (traced) by name.
type runResult struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]float64
	// Problems lists failed correctness checks, for the human reader.
	Problems []string
}

// refWorkload is the workload the others are read against: it alone gets a
// single-threaded baseline, and the wire workload is compared with it.
const refWorkload = "inproc-d400"

// guardFor is the time after which a segment nominally lasting d stops
// pulling: three times over, so the five segments of a run that all hit their
// guards still end well inside the driver's 180 s.
func guardFor(d float64) float64 { return 3*d + 2 }

// child re-executes this binary with one extra environment variable holding
// payload and decodes the JSON object it prints. The child runs in its own
// process group, so that when it must be killed its wire workers go with it.
func child(env string, payload any, timeout time.Duration, extraEnv []string, into any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(append(os.Environ(), extraEnv...), env+"="+string(raw))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if err != nil {
		if cmd.Process != nil {
			// A child that died may have left workers behind; the group is
			// still there to signal as long as one of them lives.
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
		return fmt.Errorf("%s child: %w", env, err)
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("%s child printed %q: %w", env, out, err)
	}
	return nil
}

// segment runs one segment of w lasting about d seconds in a fresh process.
func segment(w workload, seed uint64, d float64, spec segSpec, extraEnv ...string) (*segResult, error) {
	spec.Workload, spec.Seed = w.name, seed
	spec.Tuples = int64(w.rate * d)
	spec.GuardS = guardFor(d)
	spec.Smoke = d < 1
	spec.StartNs = time.Now().UnixNano()
	var res segResult
	err := child(segmentEnv, spec, time.Duration((spec.GuardS+60)*float64(time.Second)), extraEnv, &res)
	return &res, err
}

func (s *segResult) tuplesPerS() float64 { return float64(s.Tuples) / s.WallS }

// endToEnd returns the segment's value of every end-to-end metric.
func (s *segResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"tuples_per_s":      s.tuplesPerS(),
		"cpu_us_per_tuple":  s.cpuUsPerTuple(),
		"peak_rss_mb":       s.RSSMB,
		"subspace_affinity": s.Affinity,
		"setup_s":           s.SetupS,
	}
}

func (s *segResult) cpuUsPerTuple() float64 {
	return (s.CPUSelfS + s.CPUChildS) * 1e6 / float64(max(s.Tuples, 1))
}

// account adds the segment's attempts and failures to r. A tuple fails when no
// engine processed it; a segment that fails a correctness check fails all of
// its tuples.
func (r *runResult) account(s *segResult) {
	r.Attempted += s.Tuples
	if len(s.Failures) > 0 {
		r.Correct = false
		r.Failed += s.Tuples
		r.Problems = append(r.Problems, s.Failures...)
		return
	}
	r.Failed += s.Tuples - s.Processed
}

// measure is an untraced run: reps segments, each a fresh process with its own
// set-up, and the median over them of every end-to-end metric.
func measure(w workload, seed uint64, o options) (*runResult, error) {
	r := &runResult{Correct: true, Metrics: map[string]float64{}}
	cols := map[string][]float64{}
	for i := 0; i < o.reps; i++ {
		s, err := segment(w, seed, o.seconds/float64(o.reps), segSpec{})
		if err != nil {
			return nil, err
		}
		r.account(s)
		for name, v := range s.endToEnd() {
			cols[name] = append(cols[name], v)
		}
	}
	for _, m := range endToEnd {
		r.Metrics[m.name] = median(cols[m.name])
	}
	return r, nil
}

// traced is the run that attributes: a fifth of the time each goes to a plain
// segment, one with the ObsSet threaded through, and one that also records the
// benchmark's spans and times every Source call; the fully traced segment
// supplies the layer readings and the two others the price of each level of
// instrumentation. The rest goes to the reference segments some readings need
// and to the isolated layer timings.
func traced(w workload, seed uint64, o options) (*runResult, error) {
	r := &runResult{Correct: true, Metrics: map[string]float64{}}
	d := o.seconds / 5
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	plain, err := segment(w, seed, d, segSpec{})
	if err != nil {
		return nil, err
	}
	withObs, err := segment(w, seed, d, segSpec{Obs: true})
	if err != nil {
		return nil, err
	}
	full, err := segment(w, seed, d, segSpec{Obs: true, Spans: true,
		TracePath: filepath.Join(o.outDir, "trace-"+w.name+".json")})
	if err != nil {
		return nil, err
	}
	for _, s := range []*segResult{plain, withObs, full} {
		r.account(s)
	}
	M := r.Metrics
	for k, v := range full.Layer {
		M[k] = v
	}
	M["obs.overhead_pct"] = 100 * (1 - withObs.tuplesPerS()/plain.tuplesPerS())
	M["trace.overhead_pct"] = 100 * (1 - full.tuplesPerS()/plain.tuplesPerS())

	switch {
	case w.name == refWorkload:
		// The single-threaded baseline of the same job, on half the tuples
		// because it runs at about half the rate.
		p1, err := segment(w, seed, d/2, segSpec{}, "GOMAXPROCS=1")
		if err != nil {
			return nil, err
		}
		r.account(p1)
		M["pipeline.p1_tuples_per_s"] = p1.tuplesPerS()
		M["pipeline.scaling_eff"] = plain.tuplesPerS() / (p1.tuplesPerS() * float64(min(numEngines, full.Procs)))
	case w.wire:
		// The same stream without the wire, back to back.
		ref, err := findWorkload(refWorkload)
		if err != nil {
			return nil, err
		}
		in, err := segment(ref, seed, d, segSpec{})
		if err != nil {
			return nil, err
		}
		r.account(in)
		M["wire.ratio_vs_inproc"] = plain.tuplesPerS() / in.tuplesPerS()
		// The workers' engines do the same work as the reference's, but
		// their busy time is wall-clock and five processes share the cores,
		// so the engine's share of the wire run's CPU is read off the
		// reference and the residual is what the wire adds.
		M["core.engine_busy_us"] = in.Layer["core.engine_busy_us"]
		M["pipeline.nonengine_cpu_us"] = full.cpuUsPerTuple() - M["core.engine_busy_us"]
		M["core.engine_util"] = M["core.engine_busy_us"] * full.tuplesPerS() / 1e6 / float64(min(numEngines, full.Procs))
	}

	perTiming := time.Duration(d*float64(time.Second)) / time.Duration(isolatedTimings)
	layers := map[string]float64{}
	err = child(layersEnv, layersSpec{Seed: seed, BudgetMs: int(perTiming / time.Millisecond)},
		time.Duration(guardFor(3*d)*float64(time.Second)), nil, &layers)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		M[k] = v
	}
	if hot := M["core.block_row_us.hot.d400"]; w.dim == 400 && !w.wire && hot > 0 {
		M["core.cache_penalty"] = M["core.engine_busy_us"] / hot
	}
	return r, nil
}

// resultLine is the last line of a driver-mode run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of r by name with its unit, then the one JSON
// object the driver reads.
func report(out io.Writer, r *runResult, defs []metricDef) error {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := r.Metrics[m.name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.name, v, m.unit)
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for _, p := range r.Problems {
		fmt.Fprintln(out, "check failed:", p)
	}
	return json.NewEncoder(out).Encode(line)
}
