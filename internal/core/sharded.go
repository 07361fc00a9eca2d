package core

import (
	"fmt"
	"slices"

	"gmfnet/internal/network"
)

// ShardedEngine partitions the analysis state by interference closure:
// flows whose pipelines (transitively) share no resource never exchange
// jitter, so the holistic fixpoint decomposes exactly over the closures.
// Each shard — a private Engine over its own network (all shards share
// one read-only Topology) — holds whole closures, so shard fixpoints
// run independently of each other, and an admission snapshot/rollback
// touches one shard's arena, not the whole system.
//
// The engine owns the resident registry (Residents), whose per-link
// index is the one map from a resource to its shard: every directed
// link with residents names the shard holding them. Sharing an ingress
// stage implies sharing the directed link that feeds it, so links alone
// decide the partition. The shard map is maintained online:
//
//   - a newcomer whose links name no shard opens a fresh one;
//   - a newcomer inside one closure routes to that shard;
//   - a newcomer whose links name two or more shards *fuses* them
//     first: the smaller shards' arena blocks are spliced into the
//     largest shard's engine at their converged values (adoptFrom), so
//     the merged engine is immediately at its fixpoint — the disjoint
//     union of fixpoints is the fixpoint of the union precisely because
//     the fused closures shared no resource — and the absorbed shards'
//     links are re-pointed;
//   - a departure (Claim, then Remove) leaves its shard whole even when
//     it split the closure; Resplit walks the registry's closures and
//     splices each shard holding several out into warm shards, one per
//     closure.
//
// Because every per-shard analysis is the unmodified Engine iterating
// the same equations over exactly the flows of its closures, per-flow
// bounds and schedulability verdicts are identical to a monolithic
// engine over the union — the property the sharded admission
// controller's differential tests pin.
//
// A ShardedEngine is not safe for concurrent use. It runs on the
// caller's goroutine: the sharded batch path visits the shards one
// after another.
type ShardedEngine struct {
	topo *network.Topology
	cfg  Config

	res     *Residents
	shards  []*shard
	touched []*shard // placement scratch: the shards a newcomer's links name
	seq     int
}

// shard is one or more closures' private engine.
type shard struct {
	eng *Engine
	seq int // creation order: fusion keeps the oldest of equally large shards
	at  int // position in ShardedEngine.shards
}

// NewShardedEngine registers the network's flows as residents, in
// order, and gives each interference closure a shard holding its flows
// in that order; no analysis runs until a shard is asked. The passed
// network is only read (topology shared, flow specs re-registered per
// shard); it is validated once here.
func NewShardedEngine(nw *network.Network, cfg Config) (*ShardedEngine, error) {
	if nw == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	se := &ShardedEngine{topo: nw.Topo, cfg: cfg, res: newResidents()}
	rs := se.res
	for _, fs := range nw.Flows() {
		rs.enter(rs.prepare(fs, true), nil)
	}
	// One walk of the registry labels every closure; each gets a shard
	// and its links are pointed at it.
	rs.newEpoch()
	for r := rs.list.next; r != &rs.list; r = r.next {
		if r.epoch == rs.epoch {
			continue
		}
		members := rs.walk(r)
		slices.SortFunc(members, AdmissionOrder)
		s, err := se.newShard()
		if err != nil {
			return nil, err
		}
		for _, m := range members {
			if _, err := s.eng.AddFlow(m.spec); err != nil {
				return nil, err
			}
			for _, h := range m.hops {
				h.link.s = s
			}
		}
	}
	return se, nil
}

// Residents returns the resident registry, read-only.
func (se *ShardedEngine) Residents() *Residents { return se.res }

// newShard opens an empty shard. An engine over no flows is a
// converged fixpoint, so later fusions and splits can adopt warm blocks
// into it.
func (se *ShardedEngine) newShard() (*shard, error) {
	eng, err := NewEngine(network.New(se.topo), se.cfg)
	if err != nil {
		return nil, err
	}
	s := &shard{eng: eng}
	se.add(s)
	return s, nil
}

// add registers a shard as the newest.
func (se *ShardedEngine) add(s *shard) {
	s.seq, s.at = se.seq, len(se.shards)
	se.seq++
	se.shards = append(se.shards, s)
}

// drop unregisters a shard in O(1): the last shard takes its slot.
func (se *ShardedEngine) drop(s *shard) {
	last := se.shards[len(se.shards)-1]
	se.shards[s.at], last.at = last, s.at
	se.shards[len(se.shards)-1] = nil
	se.shards = se.shards[:len(se.shards)-1]
}

// touch adds the shards r's links name to se.touched, each once, in
// route order.
func (se *ShardedEngine) touch(r *Resident) {
	for _, h := range r.hops {
		if h.link != nil && h.link.s != nil && !slices.Contains(se.touched, h.link.s) {
			se.touched = append(se.touched, h.link.s)
		}
	}
}

// placeTouched returns the shard for the newcomers touch collected:
// the touched shards fused, or a fresh shard when they touched none.
func (se *ShardedEngine) placeTouched() (*shard, error) {
	if len(se.touched) == 0 {
		return se.newShard()
	}
	s, err := se.fuse(se.touched)
	clear(se.touched) // must not keep dropped shards reachable
	se.touched = se.touched[:0]
	return s, err
}

// Placement is one request, or one interference group of a batch,
// routed to a shard: the engine that must decide it, with any required
// fusion already performed. Once it is decided, Admit enters the
// admitted specs into the registry and Done drops a shard left with no
// flows — on every path, including rejection and error — so the shard
// map stays consistent. Fusions are kept either way: re-splitting is
// Resplit's job.
type Placement struct {
	se *ShardedEngine
	s  *shard
	// Indices are a batch group's positions in the batch passed to
	// PlaceBatch, ascending; nil for Place.
	Indices []int
	placed  []*Resident  // the specs passed to Place or PlaceBatch, prepared
	one     [1]*Resident // backs placed for Place, saving an allocation
}

// Engine returns the shard engine the placed specs must be decided in.
func (p *Placement) Engine() *Engine { return p.s.eng }

// Done drops the shard when the decisions left it with no flows (a
// fresh shard whose only candidates were rejected). Call it once.
func (p *Placement) Done() {
	if p.s.eng.Network().NumFlows() == 0 {
		p.se.drop(p.s)
	}
}

// Admit enters spec i of the Place or PlaceBatch call, admitted into
// Engine(), into the registry as the newest resident, reusing the link
// entries the placement looked up. A batch's groups are decided one
// after another, so the caller admits the members of every group in
// request order: the registry lists a batch's admissions as it would
// list them one request at a time.
func (p *Placement) Admit(i int) { p.se.res.enter(p.placed[i], p.s) }

// Place routes a request to a shard: the shard its route's links name,
// fused first when they name several, or a fresh shard when they name
// none. Fusion happens before the spec is staged, so the caller's
// snapshot/rollback stays within one engine.
func (se *ShardedEngine) Place(fs *network.FlowSpec) (*Placement, error) {
	r := se.res.prepare(fs, false)
	se.touch(r)
	s, err := se.placeTouched()
	if err != nil {
		return nil, err
	}
	p := &Placement{se: se, s: s}
	p.one[0] = r
	p.placed = p.one[:]
	return p, nil
}

// PlaceBatch validates a batch against the topology exactly as staging
// each spec would — a malformed spec fails the whole batch before any
// shard is touched — then partitions it into its interference groups
// and places every group, fusing the shards it bridges. Specs land in
// the same group when their routes share a link directly, through a
// chain of batch specs, or through a common existing shard. Distinct
// groups touch disjoint shards and disjoint links, so they can be
// decided independently, one after another, with decisions identical
// to deciding the whole batch in one engine. Groups are ordered by
// first member.
func (se *ShardedEngine) PlaceBatch(specs []*network.FlowSpec) ([]*Placement, error) {
	scratch := network.New(se.topo)
	for _, fs := range specs {
		if err := scratch.ValidateSpec(fs); err != nil {
			return nil, err
		}
	}
	batch := make([]*Resident, len(specs))
	for i, fs := range specs {
		batch[i] = se.res.prepare(fs, true)
	}
	out := make([]*Placement, 0, 4)
	for _, idx := range se.groupByLinks(batch) {
		for _, i := range idx {
			se.touch(batch[i])
		}
		s, err := se.placeTouched()
		if err != nil {
			for _, placed := range out {
				placed.Done()
			}
			// Best-effort: undo fusions already performed for earlier
			// groups so a failing batch cannot decay the partition.
			// Resplit is atomic per shard; on a further error the
			// partition merely stays fused, which is conservative.
			_, _ = se.Resplit()
			return nil, err
		}
		out = append(out, &Placement{se: se, s: s, Indices: idx, placed: batch})
	}
	return out, nil
}

// fuse merges the shards into the one with the most flows (ties to the
// oldest), splicing the others' converged arena blocks in and
// re-pointing their links, and returns the survivor. It costs
// O(absorbed shards).
func (se *ShardedEngine) fuse(list []*shard) (*shard, error) {
	dst := list[0]
	for _, s := range list[1:] {
		if n, m := s.eng.Network().NumFlows(), dst.eng.Network().NumFlows(); n > m || (n == m && s.seq < dst.seq) {
			dst = s
		}
	}
	for _, s := range list {
		if s == dst {
			continue
		}
		if err := dst.eng.adoptFrom(s.eng); err != nil {
			return nil, fmt.Errorf("core: shard fusion: %w", err)
		}
		se.point(s.eng, dst)
		se.drop(s)
	}
	return dst, nil
}

// point names s on every link the flows of eng cross.
func (se *ShardedEngine) point(eng *Engine, s *shard) {
	nw := eng.Network()
	for i := 0; i < nw.NumFlows(); i++ {
		route := nw.Flow(i).Route
		for h := 0; h+1 < len(route); h++ {
			if l := se.res.links[[2]network.NodeID{route[h], route[h+1]}]; l != nil {
				l.s = s
			}
		}
	}
}

// Resplit re-partitions shards that hold several of the registry's
// closures (departures can split what arrivals fused): each closure is
// spliced out into its own shard at the converged assignment, and its
// links are re-pointed. It returns the number of additional shards that
// now exist. One walk of the registry labels every closure, so shards
// still holding one closure cost nothing more. A split is atomic per
// shard: the replacements are built detached and swapped in only once
// every closure spliced cleanly, so an error leaves the old shard — and
// the whole partition — exactly as it was. Claimed departures must have
// been applied (Remove) first: a shard still holding a claimed flow
// that must split is an error.
func (se *ShardedEngine) Resplit() (int, error) {
	rs := se.res
	rs.newEpoch()
	comp := make(map[*network.FlowSpec]int, rs.n) // a spec resident twice is one route: one closure
	closures := make(map[*shard]int)
	for r := rs.list.next; r != &rs.list; r = r.next {
		if r.epoch != rs.epoch {
			rs.walk(r)
			closures[r.shard()]++
		}
		comp[r.spec] = r.comp
	}
	created := 0
	for _, s := range slices.Clone(se.shards) {
		if closures[s] < 2 {
			continue
		}
		// Group the shard's flows by registry closure: each group
		// ascending, ordered by first member.
		var groups [][]int
		at := make(map[int]int)
		for j, fs := range s.eng.Network().Flows() {
			c, ok := comp[fs]
			if !ok {
				return created, fmt.Errorf("core: Resplit: shard flow %q is not resident (a claimed departure was not removed)", fs.Flow.Name)
			}
			k, ok := at[c]
			if !ok {
				k = len(groups)
				at[c] = k
				groups = append(groups, nil)
			}
			groups[k] = append(groups[k], j)
		}
		// Converge once so every spliced block is a fixpoint.
		s.eng.Converge()
		// Build the replacement shards detached: nothing below touches
		// se.shards or the registry until every closure spliced cleanly.
		detached := make([]*shard, 0, len(groups))
		buildErr := func() error {
			for _, members := range groups {
				eng, err := NewEngine(network.New(se.topo), se.cfg) // empty: valid for warm adoption
				if err != nil {
					return err
				}
				for _, j := range members {
					if err := eng.adoptFlow(s.eng, j); err != nil {
						return err
					}
				}
				detached = append(detached, &shard{eng: eng})
			}
			return nil
		}()
		if buildErr != nil {
			return created, buildErr
		}
		// Commit point: swap the old shard for the replacements.
		se.drop(s)
		for _, ns := range detached {
			se.add(ns)
			se.point(ns.eng, ns)
		}
		created += len(detached) - 1
	}
	return created, nil
}

// Departure is a resident that Claim took out of the registry and whose
// removal from its shard has not run yet.
type Departure struct {
	fs *network.FlowSpec
	s  *shard
}

// Claim takes r out of the registry and returns its departure for
// Remove, which must run before the next placement or re-split. The
// departing flow's shard is read here, while r's links still name it:
// a link r leaves empty names no shard.
func (se *ShardedEngine) Claim(r *Resident) Departure {
	d := Departure{fs: r.spec, s: r.shard()}
	se.res.remove(r)
	return d
}

// Remove applies a claimed departure: the flow, matched by pointer
// identity (shards re-register the caller's *FlowSpec values), leaves
// the shard Claim read in one scan of that shard, and the shard is
// re-converged, or dropped when it is left empty. A shard that a
// placement or re-split since the Claim dropped is an error. A shard
// whose flows no longer form one closure stays whole until Resplit: it
// decides exactly as its split closures would.
func (se *ShardedEngine) Remove(d Departure) error {
	if d.s == nil || d.s.at >= len(se.shards) || se.shards[d.s.at] != d.s {
		return fmt.Errorf("core: Remove of a departure whose shard was dropped since its Claim")
	}
	nw := d.s.eng.Network()
	at := slices.Index(nw.Flows(), d.fs)
	if at < 0 {
		return fmt.Errorf("core: flow %q missing from its shard", d.fs.Flow.Name)
	}
	if err := d.s.eng.RemoveFlow(at); err != nil {
		return err
	}
	if nw.NumFlows() == 0 {
		se.drop(d.s)
		return nil
	}
	// Removal only shrinks interference; Converge re-converges the
	// survivors without copying a result.
	d.s.eng.Converge()
	return nil
}

// NumShards returns the number of live shards.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// NumFlows returns the total flow count across all shards.
func (se *ShardedEngine) NumFlows() int {
	n := 0
	for _, s := range se.shards {
		n += s.eng.Network().NumFlows()
	}
	return n
}

// Shards returns the live shard engines. The order is deterministic:
// creation order, except that dropping a shard moves the last one into
// its slot. The slice is a copy; the engines are the live shards —
// treat them as read-only unless you own the ShardedEngine.
func (se *ShardedEngine) Shards() []*Engine {
	out := make([]*Engine, len(se.shards))
	for i, s := range se.shards {
		out[i] = s.eng
	}
	return out
}

// groupByLinks computes PlaceBatch's interference groups from the batch
// members' link entries, as index lists, each ascending, ordered by
// first member.
func (se *ShardedEngine) groupByLinks(batch []*Resident) [][]int {
	if len(batch) == 1 {
		// A single spec is always its own group: skip the union-find
		// and its maps on the hot single-request path.
		return [][]int{{0}}
	}
	parent := make([]int, len(batch))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	// A group's root is its smallest member.
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		parent[max(ra, rb)] = min(ra, rb)
	}
	linkOwner := make(map[*residentLink]int)
	shardOwner := make(map[*shard]int)
	for i, r := range batch {
		for _, h := range r.hops {
			if j, ok := linkOwner[h.link]; ok {
				union(i, j)
			} else {
				linkOwner[h.link] = i
			}
			if s := h.link.s; s != nil {
				if j, ok := shardOwner[s]; ok {
					union(i, j)
				} else {
					shardOwner[s] = i
				}
			}
		}
	}
	var out [][]int
	group := make([]int, len(batch)) // a root's position in out
	for i := range batch {
		r := find(i)
		if r == i {
			group[i] = len(out)
			out = append(out, nil)
		}
		out[group[r]] = append(out[group[r]], i)
	}
	return out
}

// adoptFrom splices every flow of src into e at its converged jitter
// assignment. Both engines are converged first; the splice is only
// sound when src's flows share no pipeline resource with e's (the
// ShardedEngine invariant): then the disjoint union of the two
// fixpoints is the fixpoint of the union, so e stays valid with no
// re-analysis. When either engine cannot be brought to a valid
// fixpoint the flows are adopted cold (marked dirty) instead, which is
// always sound. Refused while either engine has a live snapshot.
func (e *Engine) adoptFrom(src *Engine) error {
	if e.live != nil || src.live != nil {
		return fmt.Errorf("core: adoptFrom with a live snapshot")
	}
	src.Converge()
	e.Converge()
	// Adoption copies; src is untouched. On a mid-way error, pop the
	// flows already copied so e is exactly its pre-call self — fusion
	// must be all-or-nothing or flows would exist in two shards.
	start := e.an.nw.NumFlows()
	for j := 0; j < src.an.nw.NumFlows(); j++ {
		if err := e.adoptFlow(src, j); err != nil {
			for e.an.nw.NumFlows() > start {
				_ = e.RemoveFlow(e.an.nw.NumFlows() - 1)
			}
			return err
		}
	}
	return nil
}

// adoptFlow splices flow j of src into e: the spec is re-registered
// and — when both engines hold converged state — the flow's entry is
// copied whole, arena block, demands and status at their converged
// values, so the adopted flow needs no re-analysis. Otherwise the flow
// is adopted cold and marked dirty.
func (e *Engine) adoptFlow(src *Engine, j int) error {
	fs := src.an.nw.Flow(j)
	i, err := e.an.nw.AddFlow(fs)
	if err != nil {
		return err
	}
	e.js.addFlow(i, fs, e.an.nw.FlowResources(i))
	if !e.valid || !src.valid || len(src.js.dirty) > 0 {
		e.js.markDirty(i)
		return nil
	}
	copyJitterBlock(e.js, i, src.js, j)
	return nil
}

// copyJitterBlock overwrites dst flow i's freshly added, cold entry with
// src flow j's: its arena block, demands and status. The two entries
// describe the same flow, so their shapes — frames per stage and
// pipeline length — match; resource ids may differ between the engines'
// networks, but stage positions are route-ordered in both. The block's
// memo stays empty: src's stamps were counted on src's clock. The demand
// list is capacity-clipped, so an append by either engine never writes
// into the other's.
func copyJitterBlock(dst *jitterState, i int, src *jitterState, j int) {
	db, sb := &dst.blocks[i], &src.blocks[j]
	stages := len(db.rids)
	slots := int32(stages) * db.n
	copy(dst.arena[db.base:db.base+slots], src.arena[sb.base:sb.base+slots])
	copy(dst.extraMax[db.ebase:int(db.ebase)+stages], src.extraMax[sb.ebase:int(sb.ebase)+stages])
	copy(dst.extraValid[db.ebase:int(db.ebase)+stages], src.extraValid[sb.ebase:int(sb.ebase)+stages])
	db.dem = slices.Clip(sb.dem)
	dst.setStatus(i, sb.st)
}
