package obs

import (
	"sync"
	"time"
)

// EventKind labels one control-plane journal event.
type EventKind uint8

// The journal event taxonomy. Data-plane traffic never reaches the journal;
// these are the rare, decision-shaped moments of a run — exactly the events
// a postmortem (or the Chrome trace view) needs to line up against the
// per-operator load.
const (
	// EvSyncPlan: the controller planned one sync round.
	// N = round, A = control commands issued, B = failed peers excluded.
	EvSyncPlan EventKind = iota + 1
	// EvSyncSend: an engine passed the 1.5·N criterion and shared its state.
	// Engine = sender, N = round, A = observations since last sync,
	// B = the threshold (factor·N) it had to exceed.
	EvSyncSend
	// EvSyncSkip: an engine was asked to share but refused — the data-driven
	// criterion failed. Fields as EvSyncSend.
	EvSyncSkip
	// EvSyncMerge: an engine absorbed a peer snapshot.
	// Engine = receiver, N = round, A = its own since-sync count, B = threshold.
	EvSyncMerge
	// EvNodeFailure: an operator panic was converted to a node-failed event.
	// Node = operator name, Engine = engine index when known (else -1).
	EvNodeFailure
	// EvNodeRevive: a failed node was revived.
	// Node = operator name, Engine = engine index, A = 1 when state was
	// resumed from a checkpoint, 0 for a cold restart.
	EvNodeRevive
	// EvCheckpointWrite: an engine serialized its state.
	// Engine = index, N = observations absorbed at the write.
	EvCheckpointWrite
	// EvCheckpointRestore: a revived engine replayed a checkpoint.
	// Engine = index, N = the restored observation count.
	EvCheckpointRestore
	// EvGrossOutliers: warm-up pre-filtering rejected buffer vectors.
	// Engine = index, N = vectors rejected, A = buffer size before filtering.
	EvGrossOutliers
	// EvEngineInit: an engine completed warm-up.
	// Engine = index, N = warm-up observations, A = initial σ².
	EvEngineInit
	// EvScaleRescue: the scale-collapse rescue fired.
	// Engine = index, A = rescued σ², B = the collapsed σ² it replaced.
	EvScaleRescue
	// EvRebuildShift: an engine's eigensystem rebuild route changed kind
	// (rank-one ↔ rank-c). Engine = index, N = the new kind
	// (RebuildKind), A = the previous kind. Recorded on transitions only, so
	// steady streams journal nothing while mode changes stay visible.
	EvRebuildShift
	// EvCrash / EvRecover: a simulated (cluster DES) engine crash/rejoin.
	// Engine = index, A = virtual time in seconds.
	EvCrash
	EvRecover
	// EvWireConnect: a remote edge (re)established its TCP link.
	// Node = edge name, Engine = peer engine index (-1 unknown),
	// N = connection generation (1 = first connect), A = dial attempts used.
	EvWireConnect
	// EvWireDown: a remote edge lost its TCP link and entered reconnect.
	// Node = edge name, Engine = peer engine index, N = the failed
	// generation, A = 1 when the failure was an injected reset, 0 otherwise.
	EvWireDown
	// EvWireEOS: a remote edge received the peer's clean end-of-stream frame.
	// Node = edge name, Engine = peer engine index, N = tuples received.
	EvWireEOS
)

// String returns the stable lowercase name used in JSON and Prometheus
// exposition.
func (k EventKind) String() string {
	switch k {
	case EvSyncPlan:
		return "sync-plan"
	case EvSyncSend:
		return "sync-send"
	case EvSyncSkip:
		return "sync-skip"
	case EvSyncMerge:
		return "sync-merge"
	case EvNodeFailure:
		return "node-failure"
	case EvNodeRevive:
		return "node-revive"
	case EvCheckpointWrite:
		return "checkpoint-write"
	case EvCheckpointRestore:
		return "checkpoint-restore"
	case EvGrossOutliers:
		return "gross-outliers"
	case EvEngineInit:
		return "engine-init"
	case EvScaleRescue:
		return "scale-rescue"
	case EvRebuildShift:
		return "rebuild-shift"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvWireConnect:
		return "wire-connect"
	case EvWireDown:
		return "wire-down"
	case EvWireEOS:
		return "wire-eos"
	default:
		return "unknown"
	}
}

// Event is one journal entry. The numeric fields N, A and B carry
// kind-specific values (documented on each EventKind) so appending an event
// never formats strings or allocates.
type Event struct {
	// Seq is the journal-assigned sequence number (monotone, gap free).
	Seq int64
	// TimeNs is the wall-clock Unix timestamp in nanoseconds.
	TimeNs int64
	// Kind classifies the event.
	Kind EventKind
	// Node is the stream node name, when the event concerns one ("" else).
	Node string
	// Engine is the engine index the event concerns, -1 when none.
	Engine int
	// N, A, B are kind-specific payloads (see the EventKind docs).
	N    int64
	A, B float64
}

// Journal is a bounded ring buffer of control-plane events. Appends are
// mutex-guarded (event rates are low), never allocate after construction,
// and never block on readers; once full, each append overwrites the oldest
// entry and the Dropped counter records the loss.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	next    int64 // total events ever appended == next Seq
	dropped int64
}

// DefaultJournalCap is the default ring capacity: at one sync round per
// 5 ms — an aggressive control rate — 4096 entries hold ~20 s of history.
const DefaultJournalCap = 4096

// NewJournal returns a journal holding the last capacity events
// (DefaultJournalCap when capacity ≤ 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{ring: make([]Event, capacity)}
}

// Append records ev, stamping Seq and (when ev.TimeNs is zero) the wall
// clock. Allocation free: the event is copied into the preallocated ring.
func (j *Journal) Append(ev Event) {
	if ev.TimeNs == 0 {
		ev.TimeNs = time.Now().UnixNano()
	}
	j.mu.Lock()
	ev.Seq = j.next
	if j.next >= int64(len(j.ring)) {
		j.dropped++
	}
	j.ring[j.next%int64(len(j.ring))] = ev
	j.next++
	j.mu.Unlock()
}

// Len returns the number of events currently retained.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.next < int64(len(j.ring)) {
		return int(j.next)
	}
	return len(j.ring)
}

// Dropped returns how many events were overwritten before being read.
func (j *Journal) Dropped() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// EventsSince returns the retained events with Seq ≥ since, oldest first,
// at most max of them (the oldest max, so a capped read keeps the sequence
// chain contiguous for incremental consumers); max ≤ 0 means no cap. Events
// older than since that the ring has already overwritten are simply absent —
// the caller sees the gap in the Seq numbering, which is the point: journal
// sequence numbers are gap-free at the source, so a reader that tracks the
// next expected Seq can count exactly how many events it lost.
func (j *Journal) EventsSince(since int64, max int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := int(j.next)
	start := 0
	if j.next >= int64(len(j.ring)) {
		n = len(j.ring)
		start = int(j.next % int64(len(j.ring)))
	}
	oldest := j.next - int64(n)
	if since > oldest {
		skip := since - oldest
		if skip >= int64(n) {
			return nil
		}
		start = (start + int(skip)) % len(j.ring)
		n -= int(skip)
	}
	if max > 0 && n > max {
		n = max
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = j.ring[(start+i)%len(j.ring)]
	}
	return out
}

// Next returns the sequence number the next appended event will get — the
// exclusive upper bound of everything journaled so far.
func (j *Journal) Next() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Events returns the retained events in append order, oldest first. A
// non-positive max returns everything retained; otherwise only the newest
// max events.
func (j *Journal) Events(max int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := int(j.next)
	start := 0
	if j.next >= int64(len(j.ring)) {
		n = len(j.ring)
		start = int(j.next % int64(len(j.ring)))
	}
	if max > 0 && max < n {
		start = (start + n - max) % len(j.ring)
		if j.next < int64(len(j.ring)) {
			start = n - max
		}
		n = max
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = j.ring[(start+i)%len(j.ring)]
	}
	return out
}
