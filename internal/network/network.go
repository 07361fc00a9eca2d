// Package network models the multihop topology of the paper's Figure 1:
// IP-endhosts and IP-routers at the edge, software-implemented Ethernet
// switches in the middle, and directed links characterised by a bit rate
// and a propagation delay.
//
// The package also provides the notational helpers of Section 3:
// flows(N1,N2), hep(τi,N1,N2), lp(τi,N), succ(τj,N), prec(τj,N), the
// interface count NINTERFACES(N) and the stride-scheduling service period
// CIRC(N), including the multiprocessor generalisation from the paper's
// Conclusions.
//
// Beyond the paper's notation, Network maintains the indexes the
// analysis layer builds on: the reverse link-interference index
// (FlowsOn, Interferers), dense interned pipeline ResourceIDs
// (FlowResources), and the interference-closure partition (Closures,
// ClosureOf) — a union-find over resources that tells the sharded
// admission controller which flows can never exchange jitter — and the
// resource graph's acyclicity (PipelinesAcyclic), which tells the
// incremental engine whether the holistic fixpoint is unique. All are
// maintained incrementally under AddFlow, RemoveFlow and InsertFlowAt.
// See docs/ARCHITECTURE.md for how the layers fit together.
package network

import (
	"fmt"
	"sort"

	"gmfnet/internal/units"
)

// NodeID names a node in the topology.
type NodeID string

// NodeKind distinguishes the three node roles of the paper.
type NodeKind int

// Node kinds.
const (
	// EndHost is an IP-endhost, e.g. a PC running a conferencing
	// application. Flows start or end here; its queuing discipline is any
	// work-conserving one (the operator cannot control it).
	EndHost NodeKind = iota
	// Switch is a software-implemented Ethernet switch (Click-style) with
	// prioritised output queues and a stride-scheduled CPU.
	Switch
	// Router is an IP-router at the boundary of the analysed network. Like
	// an end host it can only be the source or destination of a flow; the
	// analysed route never traverses a router.
	Router
)

// String returns the lower-case kind name.
func (k NodeKind) String() string {
	switch k {
	case EndHost:
		return "endhost"
	case Switch:
		return "switch"
	case Router:
		return "router"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// SwitchParams holds the software-switch implementation characteristics
// measured in the paper.
type SwitchParams struct {
	// CRoute is CROUTE(N): the uninterrupted execution time to dequeue an
	// Ethernet frame from an input card, classify it and enqueue it in the
	// right priority queue (the paper measured 2.7 µs with Click).
	CRoute units.Time
	// CSend is CSEND(N): the time to move an Ethernet frame from a
	// priority queue into the output card's FIFO (the paper measured 1.0 µs).
	CSend units.Time
	// Processors is the number of CPUs in the switch. With m processors
	// and NINTERFACES(N) interfaces, each CPU serves ceil(NINTERFACES/m)
	// interfaces (Conclusions section); the default 0 means 1.
	Processors int
}

// DefaultSwitchParams returns the Click measurements from the paper:
// CROUTE = 2.7 µs, CSEND = 1.0 µs, one processor.
func DefaultSwitchParams() SwitchParams {
	return SwitchParams{
		CRoute:     2700 * units.Nanosecond,
		CSend:      1000 * units.Nanosecond,
		Processors: 1,
	}
}

// Node is a vertex of the topology.
type Node struct {
	ID     NodeID
	Kind   NodeKind
	Switch SwitchParams // meaningful only when Kind == Switch
}

// Link is a directed edge of the topology.
type Link struct {
	From, To NodeID
	// Rate is linkspeed(From,To) in bits per second.
	Rate units.BitRate
	// Prop is prop(From,To): the propagation delay.
	Prop units.Time
}

// Topology is the set of nodes and directed links.
type Topology struct {
	nodes map[NodeID]*Node
	links map[[2]NodeID]*Link
	adj   map[NodeID][]NodeID // outgoing neighbours, sorted

	// ifCount memoizes Interfaces per node. AddLink updates it eagerly
	// for both endpoints, so reads never write — a Topology shared by
	// engines on different goroutines stays safe to read.
	ifCount map[NodeID]int
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		nodes:   make(map[NodeID]*Node),
		links:   make(map[[2]NodeID]*Link),
		adj:     make(map[NodeID][]NodeID),
		ifCount: make(map[NodeID]int),
	}
}

// AddHost adds an IP-endhost node.
func (t *Topology) AddHost(id NodeID) error { return t.addNode(&Node{ID: id, Kind: EndHost}) }

// AddRouter adds an IP-router node.
func (t *Topology) AddRouter(id NodeID) error { return t.addNode(&Node{ID: id, Kind: Router}) }

// AddSwitch adds a software Ethernet switch with the given implementation
// parameters.
func (t *Topology) AddSwitch(id NodeID, p SwitchParams) error {
	if p.CRoute <= 0 || p.CSend <= 0 {
		return fmt.Errorf("network: switch %q: CRoute and CSend must be positive", id)
	}
	if p.Processors < 0 {
		return fmt.Errorf("network: switch %q: negative processor count", id)
	}
	if p.Processors == 0 {
		p.Processors = 1
	}
	return t.addNode(&Node{ID: id, Kind: Switch, Switch: p})
}

func (t *Topology) addNode(n *Node) error {
	if n.ID == "" {
		return fmt.Errorf("network: empty node id")
	}
	if _, dup := t.nodes[n.ID]; dup {
		return fmt.Errorf("network: duplicate node %q", n.ID)
	}
	t.nodes[n.ID] = n
	return nil
}

// AddLink adds a directed link.
func (t *Topology) AddLink(from, to NodeID, rate units.BitRate, prop units.Time) error {
	if _, ok := t.nodes[from]; !ok {
		return fmt.Errorf("network: link source %q unknown", from)
	}
	if _, ok := t.nodes[to]; !ok {
		return fmt.Errorf("network: link target %q unknown", to)
	}
	if from == to {
		return fmt.Errorf("network: self-link on %q", from)
	}
	if rate <= 0 {
		return fmt.Errorf("network: link %q->%q: non-positive rate", from, to)
	}
	if prop < 0 {
		return fmt.Errorf("network: link %q->%q: negative propagation delay", from, to)
	}
	key := [2]NodeID{from, to}
	if _, dup := t.links[key]; dup {
		return fmt.Errorf("network: duplicate link %q->%q", from, to)
	}
	// A new neighbour pair occupies one interface on each endpoint; the
	// reverse direction of an existing link reuses the same interfaces.
	if _, back := t.links[[2]NodeID{to, from}]; !back {
		t.ifCount[from]++
		t.ifCount[to]++
	}
	t.links[key] = &Link{From: from, To: to, Rate: rate, Prop: prop}
	t.adj[from] = insertSorted(t.adj[from], to)
	return nil
}

// AddDuplexLink adds both directions of a full-duplex link with identical
// rate and propagation delay (switched Ethernet is full duplex).
func (t *Topology) AddDuplexLink(a, b NodeID, rate units.BitRate, prop units.Time) error {
	if err := t.AddLink(a, b, rate, prop); err != nil {
		return err
	}
	return t.AddLink(b, a, rate, prop)
}

func insertSorted(s []NodeID, id NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// Node returns the node with the given id, or nil.
func (t *Topology) Node(id NodeID) *Node { return t.nodes[id] }

// Link returns the directed link, or nil.
func (t *Topology) Link(from, to NodeID) *Link { return t.links[[2]NodeID{from, to}] }

// Nodes returns all nodes sorted by id.
func (t *Topology) Nodes() []*Node {
	out := make([]*Node, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Links returns all links sorted by (from, to).
func (t *Topology) Links() []*Link {
	out := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Neighbors returns the outgoing neighbours of a node, sorted.
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.adj[id] }

// Interfaces returns NINTERFACES(N): the number of network interfaces on
// the node. A full-duplex neighbour relation counts as one interface; a
// neighbour connected in only one direction also occupies an interface.
// The count is maintained incrementally under AddLink, so the analysis
// hot path (every CIRC query) reads a single map entry instead of
// scanning all links.
func (t *Topology) Interfaces(id NodeID) int {
	return t.ifCount[id]
}

// CIRC returns eq. "CIRC(N)": the worst-case time between two consecutive
// services of the same software task on switch N. With round-robin stride
// scheduling over one route task and one send task per interface, a task
// waits for NINTERFACES(N)×(CROUTE+CSEND) when one processor is used; with
// m processors each CPU serves ceil(NINTERFACES/m) interfaces (Conclusions).
func (t *Topology) CIRC(id NodeID) (units.Time, error) {
	n := t.nodes[id]
	if n == nil {
		return 0, fmt.Errorf("network: unknown node %q", id)
	}
	if n.Kind != Switch {
		return 0, fmt.Errorf("network: CIRC of non-switch node %q", id)
	}
	nif := t.Interfaces(id)
	if nif == 0 {
		return 0, fmt.Errorf("network: switch %q has no interfaces", id)
	}
	perCPU := units.CeilDiv(int64(nif), int64(n.Switch.Processors))
	return units.Time(perCPU) * (n.Switch.CRoute + n.Switch.CSend), nil
}

// Route computes a shortest path from src to dst whose intermediate nodes
// are all switches (the paper's routes never traverse IP-routers or hosts).
// Ties are broken deterministically by node id.
func (t *Topology) Route(src, dst NodeID) ([]NodeID, error) {
	if t.Node(src) == nil {
		return nil, fmt.Errorf("network: unknown source %q", src)
	}
	if t.Node(dst) == nil {
		return nil, fmt.Errorf("network: unknown destination %q", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("network: source equals destination %q", src)
	}
	// BFS where only switches may be expanded as intermediate hops.
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != src && t.Node(cur).Kind != Switch {
			continue // hosts/routers terminate a path
		}
		for _, nb := range t.adj[cur] {
			if _, seen := prev[nb]; seen {
				continue
			}
			prev[nb] = cur
			if nb == dst {
				var path []NodeID
				for at := dst; ; at = prev[at] {
					path = append(path, at)
					if at == src {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("network: no switch-only route from %q to %q", src, dst)
}

// ValidateRoute checks that a route is usable by a flow: it starts and
// ends at an endhost or router, every consecutive pair is a link, all
// intermediate nodes are switches, and no node repeats.
func (t *Topology) ValidateRoute(route []NodeID) error {
	if len(route) < 2 {
		return fmt.Errorf("network: route needs at least two nodes, got %d", len(route))
	}
	seen := make(map[NodeID]bool, len(route))
	for i, id := range route {
		n := t.Node(id)
		if n == nil {
			return fmt.Errorf("network: route node %q unknown", id)
		}
		if seen[id] {
			return fmt.Errorf("network: route visits %q twice", id)
		}
		seen[id] = true
		switch {
		case i == 0 || i == len(route)-1:
			if n.Kind == Switch {
				return fmt.Errorf("network: route endpoint %q is a switch", id)
			}
		default:
			if n.Kind != Switch {
				return fmt.Errorf("network: route intermediate %q is not a switch", id)
			}
		}
		if i > 0 && t.Link(route[i-1], id) == nil {
			return fmt.Errorf("network: route misses link %q->%q", route[i-1], id)
		}
	}
	return nil
}
