package admitd

import (
	"cmp"
	"slices"

	"gmfnet/internal/network"
)

// book is the server's closure book: the resident flow set indexed
// three ways — by spec pointer, by name in admission order, and by
// directed link — and nothing else. Interference closures (connected
// components of residents over shared directed links, exactly
// network.Network's partition, which is the oracle the book is tested
// against) are never stored: a fold that somebody subscribed to walks
// the one closure it touched, and a fold nobody listens to only inserts
// into or removes from the indices, O(route length) at any population.
//
// Like all server state it is guarded by Server.mu.
type book struct {
	bySpec map[*network.FlowSpec]*resident
	byName map[string][]*resident // admission order
	// links holds an entry for every directed link a resident has ever
	// crossed; emptied entries stay (the topology bounds their number)
	// so steady churn never re-hashes a node pair it has seen.
	links map[[2]network.NodeID]*link
	seq   uint64 // admissions so far: the admission-order key

	// Walk state. A walk labels the residents and links it reaches with
	// the current epoch and the component's index into sizes; add,
	// remove and closure start a new epoch, which invalidates every
	// label at once.
	epoch uint64
	sizes []int
	queue []*resident
}

// resident is one admitted flow.
type resident struct {
	spec *network.FlowSpec
	seq  uint64
	hops []hop // the route's directed links, in route order

	epoch uint64 // the walk epoch that last reached it
	comp  int    // its component in that epoch
}

// hop ties a resident to one link it crosses: the link's entry (cached,
// so walking never hashes a node-name pair) and the resident's slot in
// it (so leaving the link is a swap-delete, not a scan).
type hop struct {
	link *link
	slot int
}

// link is one directed link's residents, in no particular order.
type link struct {
	on    []onLink
	epoch uint64
}

// onLink is a link's back-reference to a resident and to the hop of
// that resident's route which crosses the link.
type onLink struct {
	r   *resident
	hop int
}

func newBook() *book {
	return &book{
		bySpec: make(map[*network.FlowSpec]*resident),
		byName: make(map[string][]*resident),
		links:  make(map[[2]network.NodeID]*link),
	}
}

func (b *book) newEpoch() {
	b.epoch++
	b.sizes = b.sizes[:0]
}

// add enters an admitted flow. The controller validated the spec, so
// the route has at least one link.
func (b *book) add(fs *network.FlowSpec) *resident {
	b.newEpoch()
	b.seq++
	r := &resident{spec: fs, seq: b.seq, hops: make([]hop, len(fs.Route)-1)}
	for i := range r.hops {
		key := [2]network.NodeID{fs.Route[i], fs.Route[i+1]}
		l := b.links[key]
		if l == nil {
			l = new(link)
			b.links[key] = l
		}
		r.hops[i] = hop{link: l, slot: len(l.on)}
		l.on = append(l.on, onLink{r: r, hop: i})
	}
	b.bySpec[fs] = r
	b.byName[fs.Flow.Name] = append(b.byName[fs.Flow.Name], r)
	return r
}

// remove takes a resident out of every index.
func (b *book) remove(r *resident) {
	b.newEpoch()
	delete(b.bySpec, r.spec)
	name := r.spec.Flow.Name
	if q := b.byName[name]; len(q) == 1 {
		delete(b.byName, name)
	} else {
		i := slices.Index(q, r)
		b.byName[name] = slices.Delete(q, i, i+1)
	}
	for _, h := range r.hops {
		on := h.link.on
		last := on[len(on)-1]
		on[h.slot] = last
		last.r.hops[last.hop].slot = h.slot
		on[len(on)-1] = onLink{}
		h.link.on = on[:len(on)-1]
	}
}

// closure returns the residents of r's interference closure, r first,
// otherwise in no particular order. It starts a new epoch; the slice is
// the book's scratch, valid until the next closure or population call.
func (b *book) closure(r *resident) []*resident {
	b.newEpoch()
	return b.walk(r)
}

// population returns the size of r's interference closure. Components
// are walked at most once per epoch, so after closure(r) the population
// of any member of that closure is a lookup.
func (b *book) population(r *resident) int {
	if r.epoch != b.epoch {
		b.walk(r)
	}
	return b.sizes[r.comp]
}

// walk labels the connected component of from — residents joined by a
// shared directed link — as the next component of the current epoch and
// returns its members. Every link of the component is expanded once.
func (b *book) walk(from *resident) []*resident {
	comp := len(b.sizes)
	from.epoch, from.comp = b.epoch, comp
	q := append(b.queue[:0], from)
	for i := 0; i < len(q); i++ {
		for _, h := range q[i].hops {
			l := h.link
			if l.epoch == b.epoch {
				continue
			}
			l.epoch = b.epoch
			for _, o := range l.on {
				if o.r.epoch != b.epoch {
					o.r.epoch, o.r.comp = b.epoch, comp
					q = append(q, o.r)
				}
			}
		}
	}
	b.queue = q
	b.sizes = append(b.sizes, len(q))
	return q
}

// firstOfName reports whether r is, among the residents of its own
// closure, the earliest admitted under its name. r must have been
// labelled in the current epoch.
func (b *book) firstOfName(r *resident) bool {
	for _, p := range b.byName[r.spec.Flow.Name] {
		if p == r {
			break
		}
		if p.epoch == b.epoch && p.comp == r.comp {
			return false
		}
	}
	return true
}

// bySeq orders residents by admission.
func bySeq(a, b *resident) int { return cmp.Compare(a.seq, b.seq) }

// residents returns every resident spec in admission order.
func (b *book) residents() []*network.FlowSpec {
	rs := make([]*resident, 0, len(b.bySpec))
	for _, r := range b.bySpec {
		rs = append(rs, r)
	}
	slices.SortFunc(rs, bySeq)
	specs := make([]*network.FlowSpec, len(rs))
	for i, r := range rs {
		specs[i] = r.spec
	}
	return specs
}
