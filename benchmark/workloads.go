package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"streampca"
)

// Every workload runs the paper's operating configuration: k=5 components,
// a 5000-observation exponential window, four engines behind a random split.
const (
	components = 5
	alpha      = 1 - 1.0/5000
	numEngines = 4
	ringRows   = 4096 // precomputed rows replayed in a ring, so generation stays in set-up
	// outlierRate is the planted contaminant rate of every stream.
	outlierRate = 0.02
	// An open-loop tuple pulled more than lateLimit late counts toward
	// source.late_share_5ms. Lateness is a reading, not a failure: about one
	// segment in fifty on the sizing host the pipeline stops pulling for up
	// to a second, not reproducibly with the seed (README.md), and a pipeline
	// that cannot keep up shows as tuples_per_s below the offered rate, since
	// the source never skips.
	lateLimit = 5 * time.Millisecond
)

// workload is one source-to-decision scenario. The zero value of a field
// means the pipeline default (Batch 0 = one tuple per message, SyncEvery 0 =
// independent engines).
type workload struct {
	name, why string
	dim       int
	// rate is the closed-loop throughput the 2-core sizing host sustains, in
	// tuples/s; a segment of s seconds runs a fixed rate·s tuples, so the
	// program's own counts repeat from run to run.
	rate float64
	// paced makes the load open loop: tuple i is due at start+i/rate and the
	// source blocks until then.
	paced     bool
	batch     int
	syncEvery time.Duration
	wire      bool
	spectra   bool // synthetic SDSS spectra through internal/ingest instead of the Gaussian signal ring
	// affinityFloor is the lowest subspace affinity a correct run reaches:
	// the lowest seen on the sizing host at seeds 1–20, minus 0.02, rounded
	// down. The spectra floor is far lower, because there the outcome is a
	// function of the scheduler: about one segment in 150 applies two merges
	// instead of none or one and ends at 0.88 instead of 0.9988 (README.md).
	// The median over a run's segments keeps that out of the metric; the
	// floor only has to tell an estimate from no estimate (≈ p/d).
	affinityFloor float64
}

var workloads = []workload{
	{
		name: "inproc-d400",
		why:  "paper operating point d=400 in one process, 64-tuple frames, sync off: core block path and mat kernels dominate",
		dim:  400, rate: 250000, batch: 64, affinityFloor: 0.92,
	},
	{
		name: "wire-d400",
		why:  "same stream and config over loopback TCP to 4 worker processes: the only workload where the wire layer runs",
		dim:  400, rate: 187500, batch: 64, wire: true, affinityFloor: 0.92,
	},
	{
		name: "spectra-gappy-d1000",
		why:  "gappy SDSS-like spectra d=1000 via binary ingest with 5ms ring sync: masked scalar path, ingest, syncctl and merge work",
		dim:  1000, rate: 37500, batch: 64, syncEvery: 5 * time.Millisecond, spectra: true,
		affinityFloor: 0.5,
	},
	{
		name: "unbatched-d16",
		why:  "d=16 with the default one tuple per message: per-message stream/pipeline cost and per-row eig/robust cost dominate",
		dim:  16, rate: 320000, affinityFloor: 0.97,
	},
	{
		name: "paced-d400",
		why:  "inproc-d400 config under an open loop at 20000 tuples/s: frames close on the flush deadline, idle and timer costs show",
		dim:  400, rate: 20000, paced: true, batch: 64, affinityFloor: 0.92,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) engine() streampca.Config {
	return streampca.Config{Dim: w.dim, Components: components, Alpha: alpha}
}

// input is a generated stream: next yields exactly the requested number of
// tuples (fewer only if the run overruns its time guard) from a precomputed
// ring, and truth is the planted basis the estimate is scored against.
type input struct {
	next  streampca.PipelineSource
	truth *streampca.Matrix
	// pace is non-nil for an open-loop stream.
	pace *pacer
}

// ring hands out ring indices for n tuples, and stops early once the guard
// time passes so a pathologically slow build cannot run into the driver's
// time limit. The clock is read once per lap of the ring.
type ring struct {
	i, n  int64
	guard time.Time
}

func (r *ring) advance() (int, bool) {
	if r.i >= r.n {
		return 0, false
	}
	idx := int(r.i % ringRows)
	if idx == 0 && r.i > 0 && time.Now().After(r.guard) {
		return 0, false
	}
	r.i++
	return idx, true
}

// makeInput generates the workload's stream for seed. Only the generated rows
// reach the program; the generators are set-up.
func (w workload) makeInput(seed uint64, n int64, guard time.Time) (*input, error) {
	r := &ring{n: n, guard: guard}
	if w.spectra {
		return w.spectraInput(seed, r)
	}
	gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{
		Dim: w.dim, Signals: components, OutlierRate: outlierRate, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, ringRows)
	for i := range rows {
		rows[i], _ = gen.Next()
	}
	in := &input{truth: gen.TrueBasis()}
	in.next = func() ([]float64, []bool, bool) {
		idx, ok := r.advance()
		if !ok {
			return nil, nil, false
		}
		return rows[idx], nil, true
	}
	if w.paced {
		in.pace = newPacer(w.rate, n)
		in.next = in.pace.wrap(in.next)
	}
	return in, nil
}

// spectraInput renders the ring as little-endian float64 records with NaN in
// the masked bins and reads it back through ingest.BinaryStream, so the
// source of this workload is the ingest layer.
func (w workload) spectraInput(seed uint64, r *ring) (*input, error) {
	gen, err := streampca.NewSpectraGenerator(streampca.SpectraConfig{
		Grid: streampca.SDSSGrid(w.dim), Rank: 4, GapRate: 0.3,
		OutlierRate: outlierRate, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rec := w.dim * 8
	buf := make([]byte, ringRows*rec)
	for i := 0; i < ringRows; i++ {
		for j, v := range gen.Next().Flux {
			binary.LittleEndian.PutUint64(buf[i*rec+j*8:], math.Float64bits(v))
		}
	}
	rd := &ringReader{buf: buf, rec: rec, ring: r}
	return &input{
		truth: gen.TrueBasis(),
		next:  streampca.StreamSource(streampca.NewBinaryStream(rd, w.dim), nil),
	}, nil
}

// ringReader serves the ring's records in order until the ring is exhausted.
type ringReader struct {
	buf  []byte
	rec  int
	ring *ring
	cur  []byte // unread remainder of the current record
}

func (rr *ringReader) Read(p []byte) (int, error) {
	if len(rr.cur) == 0 {
		idx, ok := rr.ring.advance()
		if !ok {
			return 0, io.EOF
		}
		rr.cur = rr.buf[idx*rr.rec : (idx+1)*rr.rec]
	}
	n := copy(p, rr.cur)
	rr.cur = rr.cur[n:]
	return n, nil
}

// pacer turns a source into an open loop. The first lap of the ring is
// handed over as fast as the pipeline pulls it, so the engines' warm-up
// decomposition (a stall of tens of milliseconds that every run pays once) is
// over before the schedule starts; from then on tuple i is due at start+i/rate,
// the source blocks until then and never skips, so a stall in the pipeline
// shows as later tuples being pulled after their due time.
//
// The generator sleeps between tuples and wakes late, by a millisecond as a
// rule and by much more when the hypervisor takes the core. The tuples that
// fell due while it overslept are not the pipeline's fault, so a tuple's lag
// runs from the moment it was both due and the generator awake to the moment
// the pipeline pulled it; the oversleep itself is kept apart.
type pacer struct {
	rate     float64
	start    time.Time
	lastWake time.Time
	i        int64 // tuples handed over, warm-up included
	// lagNs holds available→pulled for every tuple the pipeline pulled late
	// and genLateNs the generator's sleep overshoot for every tuple it had
	// to wait for.
	lagNs, genLateNs []int64
	late             int64 // pulled more than lateLimit late
}

func newPacer(rate float64, n int64) *pacer {
	return &pacer{rate: rate, lagNs: make([]int64, 0, n), genLateNs: make([]int64, 0, n)}
}

func (p *pacer) wrap(next streampca.PipelineSource) streampca.PipelineSource {
	return func() ([]float64, []bool, bool) {
		i := p.i - ringRows
		p.i++
		if i < 0 {
			return next()
		}
		now := time.Now()
		if i == 0 {
			p.start = now
		}
		due := p.start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			p.lastWake = time.Now()
			p.genLateNs = append(p.genLateNs, int64(p.lastWake.Sub(due)))
			return next()
		}
		avail := due
		if p.lastWake.After(due) {
			avail = p.lastWake
		}
		lag := now.Sub(avail)
		p.lagNs = append(p.lagNs, int64(lag))
		if lag > lateLimit {
			p.late++
		}
		return next()
	}
}
