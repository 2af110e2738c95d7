// Package obs is the repository's observability subsystem: lock-free
// fixed-bucket histograms for hot-path measurements, a bounded ring-buffer
// journal for control-plane events, atomic gauges and counters for
// algorithm-level state, and an exposition layer (JSON, Prometheus text
// format, Chrome trace events, pprof) that makes all of it inspectable over
// HTTP while a pipeline runs.
//
// The paper's placement optimizer (§III-D) is driven by per-operator
// profiling metrics and its data-driven synchronization (§III-C) hinges on
// the 1.5·N independence criterion; this package is what makes both — plus
// the robust estimator's scale/subspace trajectory — visible at runtime.
//
// Design rules:
//
//   - stdlib only: nothing here may import another streampca package, so
//     every layer (stream, core, syncctl, pipeline, cmds) can depend on it.
//   - The record path is allocation free and lock free: histograms, gauges,
//     counters and span rings are arrays of atomics written by the hot path
//     (TestRecordPathsDoNotAllocate holds it) and read by snapshots.
//   - The journal is mutex-guarded but bounded and allocation free after
//     construction; control-plane event rates (sync rounds, failures,
//     checkpoints) are orders of magnitude below the data rate.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically published float64 — the cell an engine writes its
// current M-scale (or eigenvalue, or effective N) into after every update so
// the HTTP layer can read a torn-free value without touching engine state.
type Gauge struct {
	bits atomic.Uint64
}

// Set publishes v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Get returns the last published value (0 before the first Set).
func (g *Gauge) Get() float64 { return math.Float64frombits(g.bits.Load()) }
