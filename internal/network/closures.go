package network

import "slices"

// Interference closures.
//
// Two flows interfere — directly or transitively — exactly when their
// pipelines share an interned resource (a directed link, or an ingress
// stage, which implies sharing the directed link feeding it). The
// transitive closure of that relation partitions the flow set into
// *interference closures*: disjoint groups that never exchange jitter,
// so the holistic fixpoint decomposes exactly over them. The sharded
// admission controller keeps its own partition in its resident
// registry (core.Residents); the queries here compute the partition on
// demand from the link index, in O(Σ route length), and serve as its
// reference in tests and in the benchmark's referee.
//
// Closure ids are dense and deterministic: closures are numbered by
// their smallest member flow index, so closure 0 always contains flow 0.

// Closures returns the flow indices of every interference closure,
// each ascending, ordered by smallest member (so Closures()[c] are the
// members of closure id c). Every call computes a new partition.
func (nw *Network) Closures() [][]int {
	var members [][]int
	seen := make([]bool, len(nw.flows))
	expanded := make([]bool, len(nw.onLink))
	for i := range nw.flows {
		if seen[i] {
			continue
		}
		seen[i] = true
		m := []int{i}
		for q := 0; q < len(m); q++ {
			rids := nw.flowRes[m[q]]
			for h := 0; h < len(rids); h += 2 { // the links
				if expanded[rids[h]] {
					continue
				}
				expanded[rids[h]] = true
				for _, j := range nw.onLink[rids[h]] {
					if !seen[j] {
						seen[j] = true
						m = append(m, j)
					}
				}
			}
		}
		slices.Sort(m)
		members = append(members, m)
	}
	return members
}

// NumClosures returns the number of interference closures the current
// flow set partitions into: disjoint groups of flows whose pipelines
// (transitively) share no resource. Flows in different closures never
// exchange jitter, so the holistic analysis decomposes exactly over
// closures.
func (nw *Network) NumClosures() int { return len(nw.Closures()) }

// ClosureOf returns the closure id of flow i. Ids are dense in
// [0, NumClosures()) and deterministic — closures are numbered by their
// smallest member flow index — but they are not stable across flow-set
// changes: any AddFlow or RemoveFlow may renumber.
func (nw *Network) ClosureOf(i int) int {
	return slices.IndexFunc(nw.Closures(), func(m []int) bool {
		_, ok := slices.BinarySearch(m, i)
		return ok
	})
}
