package network

import (
	"cmp"
	"slices"
)

// Resource-graph acyclicity.
//
// The holistic analysis feeds every stage's response forward as the
// next stage's entry jitter, so a flow's jitter at one pipeline
// resource depends on the interference it met at every resource before
// it. The resource graph has an edge r→r′ for every pair of consecutive
// pipeline stages of any flow. When that graph is acyclic — the
// pipelines are feed-forward — the jitter at a resource is a function
// of the jitters at resources strictly earlier in a topological order,
// so the holistic fixpoint is unique and an iteration started from any
// assignment lands on it. A cycle (two routes that each cross the
// other's links in the opposite order) lets jitter feed back into
// itself, and only the least fixpoint is the analysis' answer.
//
// The graph is kept as an edge multiset next to the link index:
//
//   - AddFlow counts the flow's edges in; an edge whose count rises
//     from zero is new, and while the graph is known to be acyclic one
//     reachability walk per new edge decides whether it closed a cycle;
//   - RemoveFlow counts them out. A removal never creates a cycle, but
//     when a known-cyclic graph loses an edge the answer becomes unknown
//     and PipelinesAcyclic recomputes it lazily with one Kahn pass.

// acyclicity is the memoized answer of PipelinesAcyclic.
type acyclicity uint8

const (
	acyclic acyclicity = iota // the zero value: an empty graph has no cycle
	cyclic
	acyclicityUnknown
)

// pipeGraph is the resource graph's edge multiset: one slice sorted by
// (from, to), so a resource's successors are a contiguous run found by
// binary search. Every interference closure of the sharded engine
// carries its own Network, so the representation is kept to one
// allocation of 12 bytes per distinct edge; the walk scratch is grown
// only by networks that ever walk.
type pipeGraph struct {
	edges []pipeEdge
	state acyclicity

	// seen/epoch/stack are the reachability walk's reusable scratch:
	// seen[r] == epoch marks r as visited in the current walk.
	seen  []uint32
	epoch uint32
	stack []ResourceID
}

// pipeEdge is one resource-graph edge with the number of flows whose
// pipeline has to immediately after from.
type pipeEdge struct {
	from, to ResourceID
	n        int32
}

// find returns the position of from→to in the sorted edges, or the
// position it would be inserted at, and whether it is present.
func (g *pipeGraph) find(from, to ResourceID) (int, bool) {
	return slices.BinarySearchFunc(g.edges, pipeEdge{from: from, to: to}, func(e, t pipeEdge) int {
		if c := cmp.Compare(e.from, t.from); c != 0 {
			return c
		}
		return cmp.Compare(e.to, t.to)
	})
}

// succ returns the edges out of a resource.
func (g *pipeGraph) succ(r ResourceID) []pipeEdge {
	k, _ := g.find(r, 0)
	end := k
	for end < len(g.edges) && g.edges[end].from == r {
		end++
	}
	return g.edges[k:end]
}

// reaches reports whether a directed path leads from one resource to
// another: a depth-first walk over the current edges. numRes bounds the
// resource ids.
func (g *pipeGraph) reaches(from, to ResourceID, numRes int) bool {
	if len(g.succ(from)) == 0 {
		return false // a resource nothing follows yet, e.g. a pipeline's next hop
	}
	for len(g.seen) < numRes {
		g.seen = append(g.seen, 0)
	}
	g.epoch++
	if g.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(g.seen)
		g.epoch = 1
	}
	stack := append(g.stack[:0], from)
	g.seen[from] = g.epoch
	found := false
	for len(stack) > 0 && !found {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ(r) {
			if e.to == to {
				found = true
				break
			}
			if g.seen[e.to] != g.epoch {
				g.seen[e.to] = g.epoch
				stack = append(stack, e.to)
			}
		}
	}
	g.stack = stack[:0]
	return found
}

// kahn reports whether the graph is acyclic by peeling sources
// (Kahn's algorithm) over numRes resources.
func (g *pipeGraph) kahn(numRes int) bool {
	indeg := make([]int32, numRes)
	for _, e := range g.edges {
		indeg[e.to]++
	}
	queue := g.stack[:0]
	for r, d := range indeg {
		if d == 0 {
			queue = append(queue, ResourceID(r))
		}
	}
	peeled := 0
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		peeled++
		for _, e := range g.succ(r) {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	g.stack = queue[:0]
	return peeled == numRes
}

// pipeAddPipeline counts a newly registered flow's edges in.
func (nw *Network) pipeAddPipeline(rids []ResourceID) {
	g := &nw.pipes
	for s := 1; s < len(rids); s++ {
		u, v := rids[s-1], rids[s]
		k, ok := g.find(u, v)
		if ok {
			g.edges[k].n++
			continue
		}
		g.edges = slices.Insert(g.edges, k, pipeEdge{from: u, to: v, n: 1})
		if g.state == acyclic && g.reaches(v, u, len(nw.stages)) {
			g.state = cyclic
		}
	}
}

// pipeRemovePipeline counts a departing flow's edges out.
func (nw *Network) pipeRemovePipeline(rids []ResourceID) {
	g := &nw.pipes
	for s := 1; s < len(rids); s++ {
		k, _ := g.find(rids[s-1], rids[s])
		if g.edges[k].n > 1 {
			g.edges[k].n--
			continue
		}
		g.edges = slices.Delete(g.edges, k, k+1)
		if g.state == cyclic {
			g.state = acyclicityUnknown
		}
	}
}

// PipelinesAcyclic reports whether the resource graph of the current
// flow set — an edge r→r′ for every pair of consecutive pipeline stages
// of any flow — has no cycle. Then the holistic fixpoint is unique (see
// the package's pipegraph.go notes), which is what lets the incremental
// engine descend from a stale fixpoint after a departure instead of
// restarting the departed flow's closure cold. The answer is maintained
// incrementally: O(1) while known, one Kahn pass over the interned
// resources after a cyclic graph lost an edge.
func (nw *Network) PipelinesAcyclic() bool {
	g := &nw.pipes
	if g.state == acyclicityUnknown {
		g.state = cyclic
		if g.kahn(len(nw.stages)) {
			g.state = acyclic
		}
	}
	return g.state == acyclic
}
