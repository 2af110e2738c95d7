package stream

import (
	"fmt"
	"sync"

	"streampca/internal/obs"
)

// NodeID identifies a node added to a Graph.
type NodeID int

// Option configures a node at Add/AddSource time.
type Option func(*node)

// WithBuffer sets the capacity of the node's input queue (default 64).
func WithBuffer(buf int) Option {
	return func(n *node) {
		if buf > 0 {
			n.buf = buf
		}
	}
}

type node struct {
	id   NodeID
	name string
	op   Operator   // nil for sources
	src  SourceFunc // nil for operators
	buf  int

	// resolved at Run
	outs    map[int][]*edge // port → edges
	nonLoop int             // inbound non-loop edge count
	inbound int             // total inbound edges
	metrics *OpMetrics
	// blockedNs is the time this node's current delivery or flush waited
	// in sendOnEdge for room downstream, which Busy leaves out. Only the
	// node's own goroutine touches it.
	blockedNs int64
}

type edge struct {
	from     *node
	fromPort int
	to       *node
	toPort   int
	loop     bool
	tap      Tap // nil for clean edges
}

// Tap intercepts every message crossing one edge — the hook the fault
// injector (and any tracing layer) plugs into. Tap is invoked from the
// sending node's goroutine only, so implementations need no locking as long
// as a Tap instance guards a single edge.
type Tap interface {
	// Tap receives one message and returns the messages to forward in
	// order (none for a drop or a hold, several for duplication or a
	// release of held messages) plus how many messages it discarded.
	Tap(msg Message) (forward []Message, dropped int)
	// Drain runs when the edge's sender finishes: it releases every held
	// message so bounded-delay faults cannot lose data at end-of-stream.
	Drain() (forward []Message, dropped int)
}

// NodeFailure describes an operator (or source) panic that the runtime
// converted into a node-failed event instead of crashing the process.
type NodeFailure struct {
	// Node is the failed node's id.
	Node NodeID
	// Name is the failed node's name.
	Name string
	// Err wraps the recovered panic value.
	Err error
}

// Graph is a dataflow application under construction. Build it single-
// threaded, then call Run exactly once.
type Graph struct {
	nodes []*node
	edges []*edge
	ran   bool

	onFailure func(NodeFailure)

	mu       sync.Mutex
	failures []NodeFailure
	live     *runtime // non-nil while Run executes (Revive target)
}

// NewGraph returns an empty application graph.
func NewGraph() *Graph { return &Graph{} }

// AddSource adds a source node driven by fn.
func (g *Graph) AddSource(name string, fn SourceFunc, opts ...Option) NodeID {
	if fn == nil {
		panic("stream: nil SourceFunc")
	}
	return g.add(name, nil, fn, opts)
}

// Add adds an operator node.
func (g *Graph) Add(name string, op Operator, opts ...Option) NodeID {
	if op == nil {
		panic("stream: nil Operator")
	}
	return g.add(name, op, nil, opts)
}

func (g *Graph) add(name string, op Operator, src SourceFunc, opts []Option) NodeID {
	n := &node{
		id: NodeID(len(g.nodes)), name: name, op: op, src: src,
		buf:     64,
		outs:    make(map[int][]*edge),
		metrics: &OpMetrics{Name: name},
	}
	for _, o := range opts {
		o(n)
	}
	g.nodes = append(g.nodes, n)
	return n.id
}

// Connect wires output port fromPort of from into input port toPort of to.
// Data edges propagate end-of-stream and participate in the acyclicity
// check; use ConnectLoop for intentional cycles.
func (g *Graph) Connect(from NodeID, fromPort int, to NodeID, toPort int) error {
	return g.connect(from, fromPort, to, toPort, false)
}

// ConnectLoop wires a back-edge. Loop edges never block: when the receiving
// operator's queue is full the message is dropped and counted in
// the sender's Dropped metric — synchronization signals are droppable by
// design, which keeps cyclic graphs live under load.
func (g *Graph) ConnectLoop(from NodeID, fromPort int, to NodeID, toPort int) error {
	return g.connect(from, fromPort, to, toPort, true)
}

func (g *Graph) connect(from NodeID, fromPort int, to NodeID, toPort int, loop bool) error {
	if g.ran {
		return fmt.Errorf("stream: graph already running")
	}
	if int(from) < 0 || int(from) >= len(g.nodes) || int(to) < 0 || int(to) >= len(g.nodes) {
		return fmt.Errorf("stream: connect with unknown node id")
	}
	src, dst := g.nodes[from], g.nodes[to]
	if dst.src != nil {
		return fmt.Errorf("stream: cannot connect into source %q", dst.name)
	}
	if fromPort < 0 || toPort < 0 {
		return fmt.Errorf("stream: negative port")
	}
	e := &edge{from: src, fromPort: fromPort, to: dst, toPort: toPort, loop: loop}
	g.edges = append(g.edges, e)
	src.outs[fromPort] = append(src.outs[fromPort], e)
	dst.inbound++
	if !loop {
		dst.nonLoop++
	}
	return nil
}

// validate checks the non-loop edge set is acyclic (cycles must be declared
// via ConnectLoop so the runtime knows where blocking is forbidden).
func (g *Graph) validate() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.nodes))
	var visit func(n *node) error
	visit = func(n *node) error {
		color[n.id] = gray
		for _, es := range n.outs {
			for _, e := range es {
				if e.loop {
					continue
				}
				switch color[e.to.id] {
				case gray:
					return fmt.Errorf("stream: data-edge cycle through %q and %q (declare it with ConnectLoop)", n.name, e.to.name)
				case white:
					if err := visit(e.to); err != nil {
						return err
					}
				}
			}
		}
		color[n.id] = black
		return nil
	}
	for _, n := range g.nodes {
		if color[n.id] == white {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// TapEdge interposes t on the edge from:fromPort → to:toPort (which must
// already exist via Connect or ConnectLoop). Every message crossing the
// edge passes through t; messages t discards are charged to the sender's
// Dropped metric. One tap per edge.
func (g *Graph) TapEdge(from NodeID, fromPort int, to NodeID, toPort int, t Tap) error {
	if g.ran {
		return fmt.Errorf("stream: graph already running")
	}
	if t == nil {
		return fmt.Errorf("stream: nil Tap")
	}
	for _, e := range g.edges {
		if e.from.id == from && e.fromPort == fromPort && e.to.id == to && e.toPort == toPort {
			if e.tap != nil {
				return fmt.Errorf("stream: edge %q:%d → %q:%d already tapped",
					e.from.name, fromPort, e.to.name, toPort)
			}
			e.tap = t
			return nil
		}
	}
	return fmt.Errorf("stream: no edge %d:%d → %d:%d to tap", from, fromPort, to, toPort)
}

// OnNodeFailure registers fn to run (from the failing node's goroutine)
// whenever an operator panic is converted into a node-failed event. Set it
// before Run.
func (g *Graph) OnNodeFailure(fn func(NodeFailure)) { g.onFailure = fn }

// Failures returns the node-failed events recorded so far, in order.
func (g *Graph) Failures() []NodeFailure {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]NodeFailure, len(g.failures))
	copy(out, g.failures)
	return out
}

func (g *Graph) recordFailure(f NodeFailure) {
	g.mu.Lock()
	g.failures = append(g.failures, f)
	g.mu.Unlock()
	if g.onFailure != nil {
		g.onFailure(f)
	}
}

// Revive clears node id's failed state so it processes traffic again. fn,
// when non-nil, runs on the node's own goroutine before the flag clears —
// the safe place to restore the operator's state (e.g. resume an engine
// from its last checkpoint). Revive is a no-op when the node is
// not currently failed or has already flushed, and returns an error when
// the graph is not running.
func (g *Graph) Revive(id NodeID, fn func()) error {
	g.mu.Lock()
	rt := g.live
	g.mu.Unlock()
	if rt == nil {
		return fmt.Errorf("stream: graph is not running")
	}
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("stream: revive of unknown node id %d", id)
	}
	n := g.nodes[id]
	if n.src != nil {
		return fmt.Errorf("stream: cannot revive source %q", n.name)
	}
	select {
	case rt.ops[id].in <- envelope{revive: true, reviveFn: fn}:
		return nil
	case <-rt.ctx.Done():
		return rt.ctx.Err()
	}
}

// Instrument attaches the graph to an obs instrument set: every node gets
// (or shares, by name) an OpInstruments bundle the runtime records Process
// latency, batch size and queue depth into. Call before Run.
func (g *Graph) Instrument(set *obs.Set) {
	if set == nil {
		return
	}
	for _, n := range g.nodes {
		n.metrics.inst = set.Op(n.name)
	}
}

// Metrics returns a snapshot of every node's counters, in insertion order.
// While the graph runs, QueueLen carries the backlog of the node's input
// queue.
func (g *Graph) Metrics() []MetricsSnapshot {
	g.mu.Lock()
	rt := g.live
	g.mu.Unlock()
	out := make([]MetricsSnapshot, len(g.nodes))
	for i, n := range g.nodes {
		q := 0
		if rt != nil {
			q = len(rt.ops[n.id].in)
		}
		out[i] = n.metrics.snapshot(q)
	}
	return out
}
