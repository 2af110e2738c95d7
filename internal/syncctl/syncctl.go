// Package syncctl implements the synchronization controller of §III-B: the
// component that decides, on every throttled control tick, which PCA engine
// shares its eigensystem with which peers. Strategies: circular (token
// ring, the paper's default, Figure 3), broadcast, and group-based — "the
// synchronization schemes (token ring, broadcast, group-based) can be used
// or new ones can be implemented by the Sync controller".
//
// Transport note: the controller emits stream.Control commands; each
// resulting stream.Snapshot crosses a process boundary as one whole
// eigensystem in the internal/core checkpoint format (19,320 B at d = 400,
// k = 5), so a round costs its transfer count times that size. Syncs are rare
// next to the data plane, which ships about 3.2 KB per tuple at d = 400.
package syncctl

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"streampca/internal/obs"
	"streampca/internal/stream"
)

// Strategy selects a synchronization communication pattern.
type Strategy int

const (
	// Ring is the circular pattern of Figure 3: round r asks engine
	// (r mod n) to send its state to engine (r+1 mod n), minimizing network
	// traffic while still percolating every state around the cluster.
	Ring Strategy = iota
	// Broadcast asks engine (r mod n) to send its state to every other
	// engine: fastest consistency, n−1 messages per round.
	Broadcast
	// Group partitions the engines into fixed groups of GroupSize; each
	// round one member per group (rotating) broadcasts within its group.
	Group
	// PeerToPeer pairs the engines randomly each round; every pair
	// exchanges one state transfer (the paper's "peer-to-peer" pattern).
	// Coverage per round is n/2 transfers with no fixed topology, which
	// spreads states faster than a ring without broadcast's fan-out.
	PeerToPeer
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Ring:
		return "ring"
	case Broadcast:
		return "broadcast"
	case Group:
		return "group"
	case PeerToPeer:
		return "peer-to-peer"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Controller is a stream operator that converts throttled tick messages
// (input port 0) into stream.Control commands (output port 0). It is pure
// control plane: it holds no eigensystem state and can coordinate any
// partial-sum analytic, not just PCA.
type Controller struct {
	// N is the number of coordinated engines.
	N int
	// Strategy selects the pattern (default Ring).
	Strategy Strategy
	// GroupSize is the group width for the Group strategy (default 2).
	GroupSize int
	// Seed drives the PeerToPeer shuffles.
	Seed uint64
	// Inst, when non-nil, receives per-round sync telemetry (round tallies,
	// a staleness timestamp, and an EvSyncPlan journal entry per round).
	Inst *obs.SyncInstruments

	round int64
	rng   *rand.Rand

	// mu guards failed: MarkFailed/MarkRecovered are called from failure
	// handlers on other goroutines while Plan runs on the controller's goroutine.
	mu     sync.Mutex
	failed map[int]bool
}

// MarkFailed removes engine i from planning: no future round sends to it
// or asks it to share until MarkRecovered. The ring (and every other
// strategy) degrades gracefully to the surviving peers.
func (c *Controller) MarkFailed(i int) {
	if i < 0 || i >= c.N {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == nil {
		c.failed = make(map[int]bool)
	}
	c.failed[i] = true
}

// MarkRecovered re-integrates engine i into the synchronization pattern;
// it participates again from the next planned round.
func (c *Controller) MarkRecovered(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.failed, i)
}

// FailedPeers returns the engines currently excluded, sorted.
func (c *Controller) FailedPeers() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.failed))
	for i := range c.failed {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// alive returns the engine indices not marked failed, in order.
func (c *Controller) alive() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, c.N)
	for i := 0; i < c.N; i++ {
		if !c.failed[i] {
			out = append(out, i)
		}
	}
	return out
}

// Plan returns the Control commands for round r without advancing state;
// Process uses it, and tests and the cluster simulator call it directly.
// Failed peers are excluded: every strategy plans over the alive subset
// only, so no command ever names a failed sender or receiver.
func (c *Controller) Plan(r int64) []stream.Control {
	alive := c.alive()
	m := len(alive)
	if m < 2 {
		return nil
	}
	switch c.Strategy {
	case Broadcast:
		sender := alive[int(r%int64(m))]
		recv := make([]int, 0, m-1)
		for _, i := range alive {
			if i != sender {
				recv = append(recv, i)
			}
		}
		return []stream.Control{{Round: r, Sender: sender, Receivers: recv}}
	case PeerToPeer:
		if c.rng == nil {
			c.rng = rand.New(rand.NewPCG(c.Seed, 0x9ee9))
		}
		perm := c.rng.Perm(m)
		out := make([]stream.Control, 0, m/2)
		for i := 0; i+1 < m; i += 2 {
			out = append(out, stream.Control{
				Round: r, Sender: alive[perm[i]], Receivers: []int{alive[perm[i+1]]},
			})
		}
		return out
	case Group:
		g := c.GroupSize
		if g < 2 {
			g = 2
		}
		var out []stream.Control
		for lo := 0; lo < m; lo += g {
			hi := lo + g
			if hi > m {
				hi = m
			}
			if hi-lo < 2 {
				continue
			}
			sender := alive[lo+int(r%int64(hi-lo))]
			recv := make([]int, 0, hi-lo-1)
			for _, i := range alive[lo:hi] {
				if i != sender {
					recv = append(recv, i)
				}
			}
			out = append(out, stream.Control{Round: r, Sender: sender, Receivers: recv})
		}
		return out
	default: // Ring
		pos := int(r % int64(m))
		sender := alive[pos]
		return []stream.Control{{Round: r, Sender: sender, Receivers: []int{alive[(pos+1)%m]}}}
	}
}

// Process implements stream.Operator: every arriving tick advances one
// round and emits its Control commands on port 0.
func (c *Controller) Process(_ int, _ stream.Message, emit stream.Emit) {
	cmds := c.Plan(c.round)
	for _, ctl := range cmds {
		emit(0, ctl)
	}
	if c.Inst != nil {
		c.mu.Lock()
		failed := len(c.failed)
		c.mu.Unlock()
		c.Inst.RecordPlan(c.round, len(cmds), failed)
	}
	c.round++
}

// Flush implements stream.Operator.
func (c *Controller) Flush(stream.Emit) {}

// Rounds returns how many rounds have been issued.
func (c *Controller) Rounds() int64 { return c.round }
