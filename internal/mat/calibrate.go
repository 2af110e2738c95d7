package mat

import (
	"runtime"
	"sync"
	"time"
)

// Startup crossover calibration. A hardcoded threshold used to govern the
// serial/parallel decision (parallelThreshold); it is machine-dependent, so
// this file measures the machine once instead: the serial cost of a
// multiply-add (maNs) and — per pool — the real round-trip overhead of a
// worker handoff. The timing steers only whether a product is dispatched to
// the pool, and pooled results are bitwise equal to serial ones, so no
// measured figure reaches a numeric result; the rank-c chunk width, which
// does, is a pure function of (d, k) — see BlockSize. GOMAXPROCS can lie about physical
// cores (containers, affinity masks), so the handoff is measured by actually
// timing a pooled product against its serial twin: on a box where "parallel"
// just timeshares one core, the measured overhead swallows the predicted
// gain and the crossover correctly parks the workers.

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// calSize is the square matrix size the probes multiply: big enough that the
// panel kernel dominates setup, small enough to stay L1/L2-resident and keep
// calibration under ~1ms per pool.
const calSize = 64

var (
	calOnce sync.Once
	calMANs float64 // serial ns per multiply-add
)

// lcgFill writes a deterministic pseudo-random pattern; calibration must not
// depend on math/rand (determinism contract of the package).
func lcgFill(x []float64, seed uint64) {
	s := seed*6364136223846793005 + 1442695040888963407
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(s>>33))/float64(1<<30) - 1
	}
}

// serialMANs measures (once) the serial cost of one multiply-add through the
// blocked product kernel.
func serialMANs() float64 {
	calOnce.Do(func() {
		a := NewDense(calSize, calSize)
		b := NewDense(calSize, calSize)
		dst := NewDense(calSize, calSize)
		lcgFill(a.data, 1)
		lcgFill(b.data, 2)
		mulBlocked(dst, a, b, 0, calSize) // warm the caches and the code path
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now() //streamvet:ignore determinism calibration timing steers only the serial/parallel crossover, never a numeric result
			mulBlocked(dst, a, b, 0, calSize)
			if el := time.Since(t0); el < best { //streamvet:ignore determinism calibration timing steers only the serial/parallel crossover, never a numeric result
				best = el
			}
		}
		calMANs = float64(best.Nanoseconds()) / float64(calSize*calSize*calSize)
		if calMANs <= 0 {
			calMANs = 0.5 // timer too coarse; a sane modern-CPU default
		}
	})
	return calMANs
}

// calibrateMinWork measures the pool's real handoff overhead and converts it
// into a multiply-add crossover: parallel execution of W multiply-adds saves
// at most W·(1−1/nw) serial work, so dispatch pays off once that saving
// clears the measured overhead with a 2× safety margin. Called from NewPool
// with the workers already parked.
func calibrateMinWork(p *Pool) int {
	ma := serialMANs()
	a := NewDense(calSize, calSize)
	b := NewDense(calSize, calSize)
	dst := NewDense(calSize, calSize)
	lcgFill(a.data, 3)
	lcgFill(b.data, 4)
	work := calSize * calSize * calSize
	serialNs := ma * float64(work)

	// Time the pooled product with the crossover forced open.
	p.minWork = 0
	p.Mul(dst, a, b) // park-to-running warmup for every worker
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now() //streamvet:ignore determinism calibration timing steers only the serial/parallel crossover, never a numeric result
		p.Mul(dst, a, b)
		if el := time.Since(t0); el < best { //streamvet:ignore determinism calibration timing steers only the serial/parallel crossover, never a numeric result
			best = el
		}
	}
	overheadNs := float64(best.Nanoseconds()) - serialNs/float64(p.nw)
	return minWorkFor(overheadNs, ma, p.nw)
}

// minWorkFor converts measured dispatch overhead into the serial/parallel
// crossover: the smallest multiply-add count whose parallel saving
// (ma·(1−1/nw) per unit of work) clears the overhead with a 2× margin.
// Pure so the calibration policy is testable without timing anything: for
// fixed overhead the crossover must fall as workers are added (more saving
// per unit of work), and clamp at the same floor/ceiling everywhere.
func minWorkFor(overheadNs, maNs float64, nw int) int {
	if overheadNs < 0 {
		overheadNs = 0
	}
	saving := maNs * (1 - 1/float64(nw))
	minWork := int(2 * overheadNs / saving)
	// Clamp: never dispatch tiny products even on a perfect machine, and
	// never rule parallelism out entirely on a noisy one — the upper clamp
	// still exceeds every product the engine issues at d ≤ 100k.
	if minWork < 1<<14 {
		minWork = 1 << 14
	}
	if minWork > 1<<30 {
		minWork = 1 << 30
	}
	return minWork
}

// eigToMulAdd is E in BlockSize's cost model: the cost of one n³ unit of the
// (k+c)-sized tridiagonal eigensolve in blocked-product multiply-adds. It is
// a constant, not a measurement, because the chunk width reaches the engine's
// output (the rank-c fold rounds differently at c=11 and c=12 — fourth digit
// at d=400) and so must be the same on every machine and in every process of
// a run. 8 gives the widths a timed ratio picked most often (4 at d=16, 11 at
// d=400, 15 at d=1000, 16 from d=2000 up, k=5); the timed ratio itself moved
// the d=400 pick between 10 and 13 from process to process. A c-sweep on a
// 2-core host is flat within ±10% for c ∈ [8,14] at d=400 and c ∈ [12,16] at
// d=1000, so no measurable speed rides on the exact figure.
const eigToMulAdd = 8

// BlockSize returns the cost-model-optimal rank-c chunk width for a d×k
// engine, in [2, max]. Per absorbed row the block path costs
//
//	d·(c+1)/8         Y·Yᵀ inner products (SyrkRows)
//	4·d·k²/c + d·k    basis rebuild E·M product + Yᵀ·W accumulation, over c
//	E·(k+c)³/c        the (k+c)-sized eigensolve, amortized over c
//
// in panel-kernel multiply-add equivalents, with E the eigensolver/multiply-add
// cost ratio (eigToMulAdd). Two terms carry efficiency weights relative to
// the square blocked product: SyrkRows
// streams two unit-stride rows per dot with no packing or panel bookkeeping
// and retires multiply-adds ≈4× faster (weight ⅛ instead of ½), while the
// E·M rebuild product is k-skinny — a d×k by k×k product at k≈5 never fills
// the 2×4 register tile — and runs ≈4× slower (weight 4). Both factors come
// from the c-sweep benchmark (c ∈ {4..16}, d ∈ {250..1000}): the unweighted
// model argmins at c≈6 where measurement favors c≈12–16.
// The d·(k+2) center/project term is c-independent and excluded. Small c
// wastes the amortization; large c pays quadratically in the Syrk corner and
// cubically in the eigensolve — the argmin replaces the hardcoded chunk
// width the engine used before.
func BlockSize(d, k, max int) int {
	if max < 2 {
		return max
	}
	best := 2
	bestCost := blockCost(d, k, 2)
	for c := 3; c <= max; c++ {
		if cost := blockCost(d, k, c); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

func blockCost(d, k, c int) float64 {
	fd, fk, fc := float64(d), float64(k), float64(c)
	kc := fk + fc
	return fd*(fc+1)/8 + 4*fd*fk*fk/fc + fd*fk + eigToMulAdd*kc*kc*kc/fc
}
