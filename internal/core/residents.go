package core

import (
	"cmp"
	"slices"

	"gmfnet/internal/network"
)

// Residents is the resident flow set of a ShardedEngine — "the flows
// currently in the network" of the paper's Section 3.5 — indexed in
// admission order, by name in admission order and by directed link.
// The link index is also the engine's one closure partition: every link
// with residents names the shard whose engine holds them, and a link
// with none names no shard. The ShardedEngine is its only writer.
// Closures (connected components over shared directed links, exactly
// network.Network's partition, its test oracle) are never stored: a
// reader walks the one it needs, and a change costs O(route length) at
// any population. A Residents is not safe for concurrent use.
type Residents struct {
	list   Resident // sentinel of the circular admission-order list
	n      int
	byName map[string][]*Resident // admission order
	// links holds an entry for every directed link a resident has ever
	// crossed; emptied entries stay (the topology bounds their number)
	// so steady churn never re-hashes a node pair it has seen.
	links map[[2]network.NodeID]*residentLink
	seq   uint64 // admissions so far: the admission-order key

	// Walk state. A walk labels the residents and links it reaches with
	// the current epoch and the component's index into sizes; enter,
	// remove, Closure and Resplit start a new epoch, which invalidates
	// every label at once.
	epoch uint64
	sizes []int
	queue []*Resident
}

// Resident is one admitted flow in a Residents.
type Resident struct {
	spec       *network.FlowSpec
	seq        uint64
	prev, next *Resident
	hops       []residentHop // the route's directed links, in route order

	epoch uint64 // the walk epoch that last reached it
	comp  int    // its component in that epoch
}

// residentHop ties a resident to one link it crosses: the link's entry
// (cached, so walking never hashes a node-name pair) and the resident's
// slot in it (so leaving the link is a swap-delete, not a scan).
type residentHop struct {
	link *residentLink
	slot int
}

// residentLink is one directed link's residents, in no particular
// order, and the shard that holds them.
type residentLink struct {
	on    []linkEntry
	s     *shard // nil exactly when on is empty
	epoch uint64
}

// linkEntry is a link's back-reference to a resident and to the hop of
// that resident's route which crosses the link.
type linkEntry struct {
	r   *Resident
	hop int
}

func newResidents() *Residents {
	rs := &Residents{
		byName: make(map[string][]*Resident),
		links:  make(map[[2]network.NodeID]*residentLink),
	}
	rs.list.prev, rs.list.next = &rs.list, &rs.list
	return rs
}

// Spec returns the resident's flow spec: the pointer that was admitted.
func (r *Resident) Spec() *network.FlowSpec { return r.spec }

// AdmissionOrder orders residents by admission, for slices.SortFunc.
func AdmissionOrder(a, b *Resident) int { return cmp.Compare(a.seq, b.seq) }

// shard returns the shard holding an entered resident.
func (r *Resident) shard() *shard { return r.hops[0].link.s }

func (rs *Residents) newEpoch() {
	rs.epoch++
	rs.sizes = rs.sizes[:0]
}

// prepare returns a resident for fs that is not entered yet: its hops
// hold the route's link entries, created when create is set and
// otherwise nil for links no resident has crossed. A spec too malformed
// to have a route gets no hops; such a spec never passes validation,
// so it is never entered.
func (rs *Residents) prepare(fs *network.FlowSpec, create bool) *Resident {
	r := &Resident{spec: fs}
	if fs == nil || fs.Flow == nil || len(fs.Route) < 2 {
		return r
	}
	r.hops = make([]residentHop, len(fs.Route)-1)
	for i := range r.hops {
		if create {
			r.hops[i].link = rs.link(fs.Route[i], fs.Route[i+1])
		} else {
			r.hops[i].link = rs.links[[2]network.NodeID{fs.Route[i], fs.Route[i+1]}]
		}
	}
	return r
}

// link returns the entry of the directed link from->to, creating it on
// first use.
func (rs *Residents) link(from, to network.NodeID) *residentLink {
	key := [2]network.NodeID{from, to}
	l := rs.links[key]
	if l == nil {
		l = new(residentLink)
		rs.links[key] = l
	}
	return l
}

// enter makes a prepared resident, whose flow s's engine now holds, the
// newest resident; its links name s.
func (rs *Residents) enter(r *Resident, s *shard) {
	rs.newEpoch()
	rs.seq++
	r.seq, r.prev, r.next = rs.seq, rs.list.prev, &rs.list
	r.prev.next, rs.list.prev = r, r
	for i := range r.hops {
		h := &r.hops[i]
		if h.link == nil {
			h.link = rs.link(r.spec.Route[i], r.spec.Route[i+1])
		}
		h.slot = len(h.link.on)
		h.link.on = append(h.link.on, linkEntry{r: r, hop: i})
		h.link.s = s
	}
	rs.n++
	rs.byName[r.spec.Flow.Name] = append(rs.byName[r.spec.Flow.Name], r)
}

// remove takes a resident out of every index. A link it leaves empty
// stops naming a shard, so the shard can be dropped and a later
// newcomer on that link opens a fresh one.
func (rs *Residents) remove(r *Resident) {
	rs.newEpoch()
	r.prev.next, r.next.prev = r.next, r.prev
	r.prev, r.next = nil, nil
	rs.n--
	name := r.spec.Flow.Name
	if q := rs.byName[name]; len(q) == 1 {
		delete(rs.byName, name)
	} else {
		i := slices.Index(q, r)
		rs.byName[name] = slices.Delete(q, i, i+1)
	}
	for _, h := range r.hops {
		on := h.link.on
		last := on[len(on)-1]
		on[h.slot] = last
		last.r.hops[last.hop].slot = h.slot
		on[len(on)-1] = linkEntry{}
		h.link.on = on[:len(on)-1]
		if len(h.link.on) == 0 {
			h.link.s = nil
		}
	}
}

// Len returns the number of residents.
func (rs *Residents) Len() int { return rs.n }

// Flows returns every resident's spec in admission order, in a new
// slice.
func (rs *Residents) Flows() []*network.FlowSpec {
	out := make([]*network.FlowSpec, 0, rs.n)
	for r := rs.list.next; r != &rs.list; r = r.next {
		out = append(out, r.spec)
	}
	return out
}

// Named returns the residents with the given name in admission order.
// The slice belongs to the set: read it before the next change.
func (rs *Residents) Named(name string) []*Resident { return rs.byName[name] }

// Closure returns the residents of r's interference closure, r first,
// otherwise in no particular order. It starts a new epoch; the slice is
// scratch, valid until the next Closure or Population call.
func (rs *Residents) Closure(r *Resident) []*Resident {
	rs.newEpoch()
	return rs.walk(r)
}

// Population returns the size of r's interference closure. Components
// are walked at most once per epoch, so after Closure(r) the population
// of any member of that closure is a lookup.
func (rs *Residents) Population(r *Resident) int {
	if r.epoch != rs.epoch {
		rs.walk(r)
	}
	return rs.sizes[r.comp]
}

// walk labels the connected component of from — residents joined by a
// shared directed link — as the next component of the current epoch and
// returns its members. Every link of the component is expanded once.
func (rs *Residents) walk(from *Resident) []*Resident {
	comp := len(rs.sizes)
	from.epoch, from.comp = rs.epoch, comp
	q := append(rs.queue[:0], from)
	for i := 0; i < len(q); i++ {
		for _, h := range q[i].hops {
			l := h.link
			if l.epoch == rs.epoch {
				continue
			}
			l.epoch = rs.epoch
			for _, o := range l.on {
				if o.r.epoch != rs.epoch {
					o.r.epoch, o.r.comp = rs.epoch, comp
					q = append(q, o.r)
				}
			}
		}
	}
	rs.queue = q
	rs.sizes = append(rs.sizes, len(q))
	return q
}

// FirstOfName reports whether r is, among the residents of its own
// closure, the earliest admitted under its name. r's closure must have
// been walked in the current epoch (by Closure or Population).
func (rs *Residents) FirstOfName(r *Resident) bool {
	for _, p := range rs.byName[r.spec.Flow.Name] {
		if p == r {
			break
		}
		if p.epoch == rs.epoch && p.comp == r.comp {
			return false
		}
	}
	return true
}
