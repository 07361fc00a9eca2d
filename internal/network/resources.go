package network

import "gmfnet/internal/units"

// ResourceID is a dense integer identifier for one pipeline resource: a
// directed link (first-hop or egress queue plus wire) or an ingress stage
// in(N) reached over one input interface. The network interns a resource
// the first time a flow's pipeline crosses it and the id stays stable for
// the lifetime of the network — flows come and go, resource ids do not.
// Everything the analysis reads per resource is indexed by these ids: the
// stage inputs (Stage), the flows on a link (LinkFlows), and the engine's
// flat jitter arenas, stage memo and link-group stamps. No name is hashed
// between interning and the output.
type ResourceID int32

// resourceKey identifies a resource for interning: Ingress distinguishes
// the in(N) stage (Node = switch, To = predecessor, i.e. the input
// interface) from a directed link (Node = transmitter, To = receiver).
type resourceKey struct {
	Ingress  bool
	Node, To NodeID
}

// Stage holds the inputs of the analysis stages run on one resource,
// resolved when the resource is interned (Sections 3.2-3.4).
type Stage struct {
	// Link is the directed link of a first-hop or egress stage; for an
	// in(N) stage, the link it is reached over. It supplies
	// linkspeed and prop.
	Link *Link
	// Switch is the switch whose CPU serves the stage — the transmitter
	// of an egress link, the receiver of an in(N) stage — and nil for a
	// first hop, whose source is a host or router.
	Switch *Node
	// Group is the link group: the link whose flows(N1,N2) the stage
	// reads. It is the resource itself for a link, and for an in(N)
	// stage the id of the link it is reached over.
	Group ResourceID
}

// CIRC returns CIRC(N) of the switch serving the stage (see
// Topology.CIRC). It reads the switch's current interface count, so a
// link added to the topology after the stage was resolved is counted.
// It must not be called on a first-hop stage.
func (s *Stage) CIRC() units.Time { return s.Switch.circ() }

// internResource returns the id of the resource, interning it on first
// use and resolving its stage inputs. group is the id of the link an
// ingress resource is reached over (already interned); a link is its own
// group. The table only grows: the number of distinct resources is
// bounded by the topology (at most two per directed link), not by the
// flow churn.
//
// Every resource is interned from a route that passed ValidateRoute, so
// its link exists and a stage's Switch is an intermediate route node: a
// switch (AddSwitch gave it at least one processor) with at least the
// interfaces of its route links. Stage.CIRC therefore cannot fail, and
// the record carries no error.
func (nw *Network) internResource(key resourceKey, group ResourceID) ResourceID {
	if id, ok := nw.resIDs[key]; ok {
		return id
	}
	id := ResourceID(len(nw.stages))
	nw.resIDs[key] = id
	st := Stage{Group: group}
	if key.Ingress {
		st.Link = nw.stages[group].Link
		st.Switch = nw.Topo.Node(key.Node)
	} else {
		st.Group = id
		st.Link = nw.Topo.Link(key.Node, key.To)
		if n := nw.Topo.Node(key.Node); n.Kind == Switch {
			st.Switch = n
		}
	}
	nw.stages = append(nw.stages, st)
	return id
}

// internFlowResources interns the pipeline of a flow in route order —
// first-hop link, then (ingress, egress link) per intermediate switch —
// and returns the ids. The order matches the stage decomposition of the
// analysis (Figure 6): stage 0 is the first hop, stage 2h-1 the ingress of
// the h-th route node, stage 2h its egress. A flow's links therefore sit
// at the even positions.
func (nw *Network) internFlowResources(fs *FlowSpec) []ResourceID {
	route := fs.Route
	out := make([]ResourceID, 0, 1+2*(len(route)-2))
	link := nw.internResource(resourceKey{false, route[0], route[1]}, 0)
	out = append(out, link)
	for h := 1; h < len(route)-1; h++ {
		in := nw.internResource(resourceKey{true, route[h], route[h-1]}, link)
		link = nw.internResource(resourceKey{false, route[h], route[h+1]}, 0)
		out = append(out, in, link)
	}
	return out
}

// NumResources returns the number of interned pipeline resources. Ids are
// dense: every id in [0, NumResources) identifies a resource some flow has
// used at least once.
func (nw *Network) NumResources() int { return len(nw.stages) }

// FlowResources returns the interned pipeline of the i-th flow in route
// order (see internFlowResources for the stage layout). The slice is owned
// by the network; callers must not mutate it.
func (nw *Network) FlowResources(i int) []ResourceID { return nw.flowRes[i] }

// Stage returns the stage inputs of resource rid. The record is owned by
// the network; callers must not mutate it, nor keep it across AddFlow.
func (nw *Network) Stage(rid ResourceID) *Stage { return &nw.stages[rid] }

// LinkFlows returns flows(N1,N2) of the link group g: the indices of the
// flows whose route uses that directed link, sorted ascending. For the id
// of an ingress resource it returns nil; pass its Stage.Group. The
// returned slice is backed by the network's link index; callers must not
// mutate it.
func (nw *Network) LinkFlows(g ResourceID) []int { return nw.onLink[g] }

// AppendHEP appends hep(τi,N1,N2) per eq. (2) of the link group g to dst
// and returns the extended slice: the flows j != i of LinkFlows(g) with
// priority >= the priority of flow i, ascending. Equal priorities count
// both ways. The egress stage builds one per evaluation into a reused
// scratch buffer.
func (nw *Network) AppendHEP(dst []int, i int, g ResourceID) []int {
	pi := nw.flows[i].Priority
	for _, j := range nw.onLink[g] {
		if j != i && nw.flows[j].Priority >= pi {
			dst = append(dst, j)
		}
	}
	return dst
}

// LinkResourceID returns the id of the directed link from->to, if any flow
// has used it.
func (nw *Network) LinkResourceID(from, to NodeID) (ResourceID, bool) {
	id, ok := nw.resIDs[resourceKey{false, from, to}]
	return id, ok
}

// IngressResourceID returns the id of switch node's ingress stage fed from
// pred, if any flow has used it.
func (nw *Network) IngressResourceID(node, pred NodeID) (ResourceID, bool) {
	id, ok := nw.resIDs[resourceKey{true, node, pred}]
	return id, ok
}
