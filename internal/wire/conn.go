package wire

import (
	"errors"
	"math/rand/v2"
	"sync"
	"time"
)

// ConnPlan is the fault profile for one remote edge's connections: the
// failure modes only real sockets have. Resets are rolled per message inside
// the edge's ordinary gathered writev, so chaos runs the same frame pool,
// zero-copy views and coalescing as clean runs. All randomness is seeded;
// only partition windows touch the wall clock.
type ConnPlan struct {
	// Reset is the per-message probability the connection is torn down
	// before that message is written: the messages ahead of it in the batch
	// go out, the socket closes, and the rest are retransmitted after the
	// edge reconnects.
	Reset float64
	// Partition is the per-dial probability a partition window opens:
	// every dial fails until the window elapses.
	Partition float64
	// PartitionFor is the partition window length (default 150 ms).
	PartitionFor time.Duration
	// Seed drives the reset/partition rolls.
	Seed uint64
}

// Validate checks the probabilities.
func (p ConnPlan) Validate() error {
	if p.Reset < 0 || p.Reset > 1 || p.Partition < 0 || p.Partition > 1 {
		return errors.New("wire: Reset and Partition must be probabilities")
	}
	return nil
}

// ErrInjectedReset is the error an injected connection reset surfaces, so
// reconnect logic and journals can tell chaos from real network failures.
var ErrInjectedReset = errors.New("wire: injected connection reset")

// errPartitioned is returned by dialGate while a partition window is open.
var errPartitioned = errors.New("wire: injected network partition")

// connChaos is the seeded fault state shared by every connection of one
// edge: the reset/partition PRNG and the partition window survive
// reconnects, so the schedule is one deterministic sequence per edge rather
// than restarting with each new socket.
type connChaos struct {
	plan ConnPlan

	mu             sync.Mutex
	rng            *rand.Rand
	partitionUntil time.Time
	resets         int64
	partitions     int64
}

func newConnChaos(plan ConnPlan) *connChaos {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if plan.PartitionFor <= 0 {
		plan.PartitionFor = 150 * time.Millisecond
	}
	return &connChaos{
		plan: plan,
		rng:  rand.New(rand.NewPCG(plan.Seed, 0x5e7e)),
	}
}

// dialGate rolls the partition schedule for one dial attempt: it fails
// while a window is open and may open a new one.
func (cc *connChaos) dialGate() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	now := time.Now()
	if now.Before(cc.partitionUntil) {
		return errPartitioned
	}
	if cc.plan.Partition > 0 && cc.rng.Float64() < cc.plan.Partition {
		cc.partitionUntil = now.Add(cc.plan.PartitionFor)
		cc.partitions++
		return errPartitioned
	}
	return nil
}

// resetRoll rolls the reset schedule for one message about to be written
// and reports whether the connection must be torn down ahead of it.
func (cc *connChaos) resetRoll() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.plan.Reset > 0 && cc.rng.Float64() < cc.plan.Reset {
		cc.resets++
		return true
	}
	return false
}

// Resets and Partitions report how many connection-level faults fired.
func (cc *connChaos) Resets() int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.resets
}

func (cc *connChaos) Partitions() int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.partitions
}
