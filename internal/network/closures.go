package network

// Interference-closure tracking.
//
// Two flows interfere — directly or transitively — exactly when their
// pipelines share an interned resource (a directed link, or an ingress
// stage, which implies sharing the directed link feeding it). The
// transitive closure of that relation partitions the flow set into
// *interference closures*: disjoint groups that never exchange jitter,
// so the holistic fixpoint decomposes exactly over them. The sharded
// admission controller (core.ShardedEngine) keeps one analysis arena per
// closure and decides each request inside its own closure.
//
// The partition is maintained as a union-find over ResourceIDs:
//
//   - AddFlow and InsertFlowAt union the flow's pipeline resources —
//     closures only ever merge under insertion, so the update is a few
//     near-O(1) unions;
//   - RemoveFlow can *split* a closure, which plain union-find cannot
//     express, so a departure marks the structure stale and the next
//     query rebuilds it from the surviving flows in O(Σ route length);
//   - the flow→closure assignment and member lists are derived lazily
//     and memoized under a generation counter, so repeated queries
//     between flow-set changes are free.
//
// Closure ids are dense and deterministic: closures are numbered by
// their smallest member flow index, so closure 0 always contains flow 0.

// closureIndex holds the union-find and its memoized flow partition; it
// lives inside Network and is maintained by AddFlow/RemoveFlow/
// InsertFlowAt.
type closureIndex struct {
	// parent is the DSU forest over ResourceIDs, grown as resources are
	// interned. It is exact while stale is false.
	parent []int32
	// stale records that a removal may have split a closure; the next
	// query re-unions the surviving flows' pipelines.
	stale bool

	// gen increments on every flow-set change; builtGen is the
	// generation flowClosure/members were computed at.
	gen      uint64
	builtGen uint64
	built    bool

	flowClosure []int
	members     [][]int
}

// bump invalidates the memoized partition after any flow-set change.
func (ci *closureIndex) bump() { ci.gen++ }

// find returns the DSU root of resource r with path halving.
func (ci *closureIndex) find(r ResourceID) ResourceID {
	for ci.parent[r] != int32(r) {
		ci.parent[r] = ci.parent[ci.parent[r]]
		r = ResourceID(ci.parent[r])
	}
	return r
}

// union links the closures of a and b.
func (ci *closureIndex) union(a, b ResourceID) {
	ra, rb := ci.find(a), ci.find(b)
	if ra != rb {
		ci.parent[rb] = int32(ra)
	}
}

// grow extends the forest to cover n interned resources.
func (ci *closureIndex) grow(n int) {
	for len(ci.parent) < n {
		ci.parent = append(ci.parent, int32(len(ci.parent)))
	}
}

// addPipeline unions a newly registered flow's pipeline resources.
// Insertion only merges closures, so the incremental update stays exact
// even while stale rebuilds are pending.
func (nw *Network) closureAddPipeline(rids []ResourceID) {
	ci := &nw.closures
	ci.bump()
	ci.grow(len(nw.resKeys))
	for i := 1; i < len(rids); i++ {
		ci.union(rids[0], rids[i])
	}
}

// closureRemove records a departure: union-find cannot split, so the
// forest is rebuilt from the surviving flows on the next query.
func (nw *Network) closureRemove() {
	nw.closures.bump()
	nw.closures.stale = true
}

// rebuildClosures recomputes the memoized flow partition (and, after a
// removal, the union-find itself) at the current generation.
func (nw *Network) rebuildClosures() {
	ci := &nw.closures
	if ci.built && ci.builtGen == ci.gen {
		return
	}
	ci.grow(len(nw.resKeys))
	if ci.stale {
		for i := range ci.parent {
			ci.parent[i] = int32(i)
		}
		for _, rids := range nw.flowRes {
			for i := 1; i < len(rids); i++ {
				ci.union(rids[0], rids[i])
			}
		}
		ci.stale = false
	}
	ci.flowClosure = ci.flowClosure[:0]
	ci.members = ci.members[:0]
	rootID := make(map[ResourceID]int, len(nw.flows))
	for i, rids := range nw.flowRes {
		root := ci.find(rids[0])
		id, ok := rootID[root]
		if !ok {
			id = len(ci.members)
			rootID[root] = id
			ci.members = append(ci.members, nil)
		}
		ci.flowClosure = append(ci.flowClosure, id)
		ci.members[id] = append(ci.members[id], i)
	}
	ci.built = true
	ci.builtGen = ci.gen
}

// NumClosures returns the number of interference closures the current
// flow set partitions into: disjoint groups of flows whose pipelines
// (transitively) share no resource. Flows in different closures never
// exchange jitter, so the holistic analysis decomposes exactly over
// closures.
func (nw *Network) NumClosures() int {
	nw.rebuildClosures()
	return len(nw.closures.members)
}

// ClosureOf returns the closure id of flow i. Ids are dense in
// [0, NumClosures()) and deterministic — closures are numbered by their
// smallest member flow index — but they are not stable across flow-set
// changes: any AddFlow, RemoveFlow or InsertFlowAt may renumber.
func (nw *Network) ClosureOf(i int) int {
	nw.rebuildClosures()
	return nw.closures.flowClosure[i]
}

// Closures returns the flow indices of every interference closure,
// each ascending, ordered by smallest member (so Closures()[c] are the
// members of closure id c). The returned slices are owned by the
// network and valid until the next flow-set change; callers must not
// mutate them.
func (nw *Network) Closures() [][]int {
	nw.rebuildClosures()
	return nw.closures.members
}
