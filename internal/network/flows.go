package network

import (
	"fmt"
	"sort"

	"gmfnet/internal/gmf"
	"gmfnet/internal/units"
)

// Priority is an IEEE 802.1p-style output-queue priority. Larger values
// are more important. Commodity switches support 2-8 levels, but the model
// accepts any non-negative value.
type Priority int

// FlowSpec binds a GMF flow to the network: its route, priority and
// framing.
type FlowSpec struct {
	// Flow holds the GMF traffic parameters.
	Flow *gmf.Flow
	// Route is the node sequence from source to destination. Endpoints
	// are hosts or routers; intermediates are switches.
	Route []NodeID
	// Priority is the 802.1p priority of the flow's Ethernet frames in
	// switch output queues.
	Priority Priority
	// RTP selects RTP framing (adds the paper's 16-byte header).
	RTP bool
}

// Source returns the first node of the route.
func (fs *FlowSpec) Source() NodeID { return fs.Route[0] }

// Destination returns the last node of the route.
func (fs *FlowSpec) Destination() NodeID { return fs.Route[len(fs.Route)-1] }

// Succ returns succ(τ,N): the node after N on the flow's route.
func (fs *FlowSpec) Succ(n NodeID) (NodeID, bool) {
	for i := 0; i < len(fs.Route)-1; i++ {
		if fs.Route[i] == n {
			return fs.Route[i+1], true
		}
	}
	return "", false
}

// Prec returns prec(τ,N): the node before N on the flow's route.
func (fs *FlowSpec) Prec(n NodeID) (NodeID, bool) {
	for i := 1; i < len(fs.Route); i++ {
		if fs.Route[i] == n {
			return fs.Route[i-1], true
		}
	}
	return "", false
}

// Uses reports whether the flow's route contains the directed link
// from->to.
func (fs *FlowSpec) Uses(from, to NodeID) bool {
	for i := 0; i < len(fs.Route)-1; i++ {
		if fs.Route[i] == from && fs.Route[i+1] == to {
			return true
		}
	}
	return false
}

// Network is a topology together with the set of admitted flows. It is the
// input to the schedulability analysis and to the simulator.
type Network struct {
	Topo  *Topology
	flows []*FlowSpec

	// onLink is the reverse interference index: for every directed link
	// (from, to) the ascending indices of the flows whose route uses it.
	// AddFlow and RemoveFlow maintain it, so LinkFlows and
	// VisitInterferers are lookups rather than scans — the analysis
	// inner loops and the incremental engine's affected-set computation
	// depend on that. It is a dense slice indexed by the link's interned
	// ResourceID (an ingress id's entry stays empty), and the index
	// shift of a departure walks one slice.
	onLink [][]int

	// resIDs interns every pipeline resource a flow has ever used into a
	// dense ResourceID, and stages holds each resource's stage inputs,
	// indexed by that id (see resources.go); flowRes holds each flow's
	// pipeline ids in route order, aligned with flows.
	resIDs  map[resourceKey]ResourceID
	stages  []Stage
	flowRes [][]ResourceID

	// pipes is the resource graph's edge multiset (see pipegraph.go),
	// answering PipelinesAcyclic.
	pipes pipeGraph
}

// New returns a Network over the given topology.
func New(topo *Topology) *Network {
	return &Network{
		Topo:   topo,
		resIDs: make(map[resourceKey]ResourceID),
	}
}

// ValidateSpec checks a flow spec against the topology exactly as
// AddFlow would, without registering it: the spec and its GMF flow must
// be well-formed, the priority non-negative and the route valid. The
// sharded admission controller uses it to pre-validate whole batches
// before any shard is touched.
func (nw *Network) ValidateSpec(fs *FlowSpec) error {
	if fs == nil || fs.Flow == nil {
		return fmt.Errorf("network: nil flow spec")
	}
	if err := fs.Flow.Validate(); err != nil {
		return err
	}
	if fs.Priority < 0 {
		return fmt.Errorf("network: flow %q: negative priority", fs.Flow.Name)
	}
	if err := nw.Topo.ValidateRoute(fs.Route); err != nil {
		return fmt.Errorf("network: flow %q: %w", fs.Flow.Name, err)
	}
	return nil
}

// AddFlow validates the flow spec against the topology and registers it.
// The returned index identifies the flow in analysis results.
func (nw *Network) AddFlow(fs *FlowSpec) (int, error) {
	if err := nw.ValidateSpec(fs); err != nil {
		return 0, err
	}
	nw.flows = append(nw.flows, fs)
	i := len(nw.flows) - 1
	rids := nw.internFlowResources(fs)
	nw.flowRes = append(nw.flowRes, rids)
	nw.growLinkIndex()
	for h := 0; h < len(rids); h += 2 {
		nw.onLink[rids[h]] = append(nw.onLink[rids[h]], i)
	}
	nw.pipeAddPipeline(rids)
	return i, nil
}

// RemoveFlow removes the i-th flow. Flows after it shift down by one
// index, preserving admission order; the link index is updated in place.
// Removing an out-of-range index is a no-op so that rollback paths can
// call it unconditionally. Removing the last flow — the admission
// rollback case — costs O(route length); removing a middle flow
// additionally walks the dense link index once to shift the higher
// indices down.
func (nw *Network) RemoveFlow(i int) {
	if i < 0 || i >= len(nw.flows) {
		return
	}
	rids := nw.flowRes[i]
	nw.pipeRemovePipeline(rids)
	nw.flows = append(nw.flows[:i], nw.flows[i+1:]...)
	nw.flowRes = append(nw.flowRes[:i], nw.flowRes[i+1:]...)
	for h := 0; h < len(rids); h += 2 {
		s := nw.onLink[rids[h]]
		for k, j := range s {
			if j == i {
				s = append(s[:k], s[k+1:]...)
				break
			}
		}
		nw.onLink[rids[h]] = s
	}
	if i == len(nw.flows) {
		return // tail removal: no indices shift
	}
	for _, s := range nw.onLink {
		for k, j := range s {
			if j > i {
				s[k] = j - 1
			}
		}
	}
}

// RemoveLastFlow removes the most recently added flow. The admission
// controller uses it to roll back a rejected tentative admission.
func (nw *Network) RemoveLastFlow() {
	nw.RemoveFlow(len(nw.flows) - 1)
}

// growLinkIndex gives every interned resource an onLink entry. A flow's
// links sit at the even positions of its pipeline (see
// internFlowResources).
func (nw *Network) growLinkIndex() {
	if n := len(nw.stages); n > len(nw.onLink) {
		nw.onLink = append(nw.onLink, make([][]int, n-len(nw.onLink))...)
	}
}

// Flows returns the registered flow specs in admission order. The slice is
// shared; callers must not mutate it.
func (nw *Network) Flows() []*FlowSpec { return nw.flows }

// NumFlows returns the number of registered flows.
func (nw *Network) NumFlows() int { return len(nw.flows) }

// Flow returns the i-th flow spec.
func (nw *Network) Flow(i int) *FlowSpec { return nw.flows[i] }

// VisitInterferers calls fn for every flow j != i sharing a directed
// link with flow i, in link-walk order. Two flows can influence each
// other's response-time bounds exactly when they (transitively)
// interfere through such shared links: the first hop and the egress
// stages interfere per directed link, and the ingress stage in(N) of a
// switch is shared by precisely the flows entering N over the same
// directed link. Flows sharing several links are visited once per
// shared link: the allocation-free form for callers folding into a set
// (the incremental engine's worklist seeds and propagation fronts). The
// walk reads the link index at the even positions of the flow's
// pipeline, its links.
func (nw *Network) VisitInterferers(i int, fn func(j int)) {
	if i < 0 || i >= len(nw.flows) {
		return
	}
	rids := nw.flowRes[i]
	for h := 0; h < len(rids); h += 2 {
		for _, j := range nw.onLink[rids[h]] {
			if j != i {
				fn(j)
			}
		}
	}
}

// Validate checks the whole network: topology links used by flows exist
// (already ensured per flow) and every switch on a route has positive CIRC.
func (nw *Network) Validate() error {
	for i, fs := range nw.flows {
		if err := nw.Topo.ValidateRoute(fs.Route); err != nil {
			return fmt.Errorf("network: flow %d (%q): %w", i, fs.Flow.Name, err)
		}
		for _, id := range fs.Route[1 : len(fs.Route)-1] {
			if _, err := nw.Topo.CIRC(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// AssignPrioritiesDM assigns deadline-monotonic priorities: flows with a
// smaller minimum deadline get a higher priority. Flows with equal minimum
// deadlines share a priority level (they interfere with each other per the
// >= in eq. (2)). Existing priorities are overwritten.
func (nw *Network) AssignPrioritiesDM() {
	type fd struct {
		idx int
		dl  units.Time
	}
	fds := make([]fd, len(nw.flows))
	for i, fs := range nw.flows {
		fds[i] = fd{i, fs.Flow.MinDeadline()}
	}
	sort.Slice(fds, func(a, b int) bool { return fds[a].dl > fds[b].dl })
	prio := Priority(0)
	for i, f := range fds {
		if i > 0 && f.dl != fds[i-1].dl {
			prio++
		}
		nw.flows[f.idx].Priority = prio
	}
}
