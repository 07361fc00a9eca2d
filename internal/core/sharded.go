package core

import (
	"fmt"
	"sort"

	"gmfnet/internal/network"
)

// ShardedEngine partitions the analysis state by interference closure:
// flows whose pipelines (transitively) share no resource never exchange
// jitter, so the holistic fixpoint decomposes exactly over the closures
// of network.Closures. Each closure gets its own shard — a private
// Engine over its own network (all shards share one read-only
// Topology) — so shard fixpoints run independently of each other, and
// an admission snapshot/rollback touches one shard's arena, not the
// whole system.
//
// The shard map is maintained online:
//
//   - a newcomer whose pipeline touches no shard opens a fresh one;
//   - a newcomer inside one closure routes to that shard;
//   - a newcomer whose pipeline bridges two or more shards *fuses*
//     them first: the smaller shards' arena blocks are spliced into the
//     largest shard's engine at their converged values (adoptFrom), so
//     the merged engine is immediately at its fixpoint — the disjoint
//     union of fixpoints is the fixpoint of the union precisely because
//     the fused closures shared no resource;
//   - a departure (Remove) leaves its shard whole even when it split
//     the closure; Resplit detects shards whose flows now fall into
//     several closures and splices each closure out into its own warm
//     shard.
//
// Because every per-shard analysis is the unmodified Engine iterating
// the same equations over exactly the flows of one closure, per-flow
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

	shards []*shard
	// routes maps every pipeline resource a committed flow crosses to
	// the shard holding that flow: the partition's index, consulted by
	// placement and by departures (a flow's shard is the owner of any
	// of its resources).
	routes map[Resource]*shard
	seq    int
}

// shard is one closure's private engine plus the resources routed to it.
type shard struct {
	eng *Engine
	seq int
	// owned counts, per resource routed to this shard, how many of the
	// shard's flows cross it; a key leaves the route table when its
	// count drops to zero. Fusion and drop enumerate it for "all keys
	// of this shard"; Resplit counts it from scratch for the shards it
	// creates.
	owned map[Resource]int
}

// NewShardedEngine partitions the network's flows by interference
// closure and returns an engine per closure. The passed network is
// only read (topology shared, flow specs re-registered per shard); it
// is validated once here.
func NewShardedEngine(nw *network.Network, cfg Config) (*ShardedEngine, error) {
	if nw == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	se := &ShardedEngine{
		topo:   nw.Topo,
		cfg:    cfg,
		routes: make(map[Resource]*shard),
	}
	for _, members := range nw.Closures() {
		s, err := se.newShard()
		if err != nil {
			return nil, err
		}
		for _, i := range members {
			fs := nw.Flow(i)
			if _, err := s.eng.AddFlow(fs); err != nil {
				return nil, err
			}
			se.own(s, flowResources(fs))
		}
	}
	return se, nil
}

// newShard opens an empty shard. Its engine is converged trivially so
// later fusions and splits can adopt warm blocks into it.
func (se *ShardedEngine) newShard() (*shard, error) {
	eng, err := NewEngine(network.New(se.topo), se.cfg)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Analyze(); err != nil { // empty fixpoint: marks the engine valid
		return nil, err
	}
	s := &shard{eng: eng, seq: se.seq, owned: make(map[Resource]int)}
	se.seq++
	se.shards = append(se.shards, s)
	return s, nil
}

// own routes one committed flow's pipeline resources to the shard.
// Callers guarantee each key is unowned or already routed to s —
// placement fuses bridging shards first.
func (se *ShardedEngine) own(s *shard, keys []Resource) {
	for _, k := range keys {
		se.routes[k] = s
		s.owned[k]++
	}
}

// disown releases one departed flow's pipeline resources: counts
// drop, and keys no remaining flow of the shard crosses are unrouted,
// so a later newcomer on those resources opens a fresh closure instead
// of being pulled into this shard.
func (se *ShardedEngine) disown(s *shard, keys []Resource) {
	for _, k := range keys {
		if se.routes[k] != s {
			continue
		}
		if n := s.owned[k] - 1; n > 0 {
			s.owned[k] = n
		} else {
			delete(s.owned, k)
			delete(se.routes, k)
		}
	}
}

// drop unregisters a shard and its resource routes.
func (se *ShardedEngine) drop(s *shard) {
	for k := range s.owned {
		if se.routes[k] == s {
			delete(se.routes, k)
		}
	}
	for i, t := range se.shards {
		if t == s {
			se.shards = append(se.shards[:i], se.shards[i+1:]...)
			return
		}
	}
}

// specKeys returns the pipeline resources of a spec, or nil when the
// spec is too malformed to have a pipeline (placement then falls back
// to a fresh shard and the engine's own validation reports the error).
func specKeys(fs *network.FlowSpec) []Resource {
	if fs == nil || fs.Flow == nil || len(fs.Route) < 2 {
		return nil
	}
	return flowResources(fs)
}

// touching returns the distinct shards owning any of the keys, in
// first-touch order (deterministic: keys are in pipeline order and
// shard routes are updated deterministically).
func (se *ShardedEngine) touching(keys []Resource) []*shard {
	var out []*shard
	for _, k := range keys {
		s := se.routes[k]
		if s == nil {
			continue
		}
		dup := false
		for _, t := range out {
			if t == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// Placement is the result of routing one request (or one batch group)
// to a shard: the engine to admit into, with any required fusion
// already performed. Exactly one Commit call must follow — on every
// path, including rejection (with no specs) — so the shard map stays
// consistent.
type Placement struct {
	se *ShardedEngine
	s  *shard
}

// Engine returns the shard engine the placed request(s) must be
// admitted into.
func (p *Placement) Engine() *Engine { return p.s.eng }

// Commit finalises a placement: the pipelines of the specs that were
// actually admitted are routed to the shard, and a shard left with no
// flows (a fresh shard whose only candidate was rejected, or an
// emptied one) is dropped. Fusions performed by Place are kept either
// way — re-splitting is Resplit's job.
func (p *Placement) Commit(admitted ...*network.FlowSpec) {
	for _, fs := range admitted {
		p.se.own(p.s, specKeys(fs))
	}
	if p.s.eng.Network().NumFlows() == 0 {
		p.se.drop(p.s)
	}
}

// Place routes a request (or a batch group that must be decided
// together) to a shard: the shard owning the specs' pipeline
// resources, fused first when the specs bridge several, or a fresh
// shard when they touch none. Fusion happens before any spec is
// staged, so the caller's snapshot/rollback stays within one engine.
// The specs are not added and their pipelines not yet routed; Commit
// does that for the admitted ones.
func (se *ShardedEngine) Place(specs ...*network.FlowSpec) (*Placement, error) {
	var keys []Resource
	for _, fs := range specs {
		keys = append(keys, specKeys(fs)...)
	}
	return se.placeKeys(keys)
}

// placeKeys is Place over precomputed pipeline keys.
func (se *ShardedEngine) placeKeys(keys []Resource) (*Placement, error) {
	touched := se.touching(keys)
	if len(touched) == 0 {
		s, err := se.newShard()
		if err != nil {
			return nil, err
		}
		return &Placement{se: se, s: s}, nil
	}
	dst, err := se.fuse(touched)
	if err != nil {
		return nil, err
	}
	return &Placement{se: se, s: dst}, nil
}

// BatchPlacement is one interference group of a batch together with
// its placement: the group members' positions in the original batch
// and the shard engine (fused as needed) that must decide them as one
// monolithic sub-batch.
type BatchPlacement struct {
	Placement
	// Indices are the group members' positions in the batch passed to
	// PlaceBatch, ascending.
	Indices []int

	keys [][]Resource // pipeline keys per member, for Commit
}

// Commit finalises the group: the pipelines of the members whose
// admitted flag is set are routed to the shard, and an emptied shard
// is dropped. admitted is indexed like Indices.
func (bp *BatchPlacement) Commit(admitted []bool) {
	for at := range bp.Indices {
		if admitted[at] {
			bp.se.own(bp.s, bp.keys[at])
		}
	}
	if bp.s.eng.Network().NumFlows() == 0 {
		bp.se.drop(bp.s)
	}
}

// PlaceBatch partitions a batch into its interference groups — specs
// land in the same group when their pipelines share a resource
// directly, through a chain of batch specs, or through a common
// existing shard — and places every group, fusing the shards it
// bridges. Distinct groups touch disjoint shards and disjoint
// resources, so they can be decided independently, one after another,
// with decisions identical to deciding the whole batch in one engine.
// Groups are ordered by first member. Pipeline keys are computed once
// here and reused by Commit.
func (se *ShardedEngine) PlaceBatch(specs []*network.FlowSpec) ([]*BatchPlacement, error) {
	keys := make([][]Resource, len(specs))
	for i, fs := range specs {
		keys[i] = specKeys(fs)
	}
	out := make([]*BatchPlacement, 0, 4)
	for _, idx := range se.groupByKeys(keys) {
		var gkeys []Resource
		bp := &BatchPlacement{Indices: idx, keys: make([][]Resource, len(idx))}
		for at, i := range idx {
			bp.keys[at] = keys[i]
			gkeys = append(gkeys, keys[i]...)
		}
		p, err := se.placeKeys(gkeys)
		if err != nil {
			for _, placed := range out {
				placed.Commit(make([]bool, len(placed.Indices)))
			}
			// Best-effort: undo fusions already performed for earlier
			// groups so a failing batch cannot decay the partition.
			// Resplit is atomic per shard; on a further error the
			// partition merely stays fused, which is conservative.
			_, _ = se.Resplit()
			return nil, err
		}
		bp.Placement = *p
		out = append(out, bp)
	}
	return out, nil
}

// fuse merges the shards into the one with the most flows (ties to the
// oldest), splicing the others' converged arena blocks in and moving
// their resource routes over, and returns the survivor.
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
		for k, n := range s.owned {
			se.routes[k] = dst
			dst.owned[k] += n
		}
		s.owned = nil // already re-routed; keep drop from deleting them
		se.drop(s)
	}
	return dst, nil
}

// Resplit re-partitions shards whose flows no longer form a single
// closure (departures can split what arrivals fused): each closure is
// spliced out into its own shard at the converged assignment, and the
// split shards' resource routes are rebuilt exactly. It returns the
// number of additional shards that now exist. Shards still forming one
// closure are untouched, so steady-state cost is one memoized closure
// query per shard. A split is atomic per shard: the replacements are
// built detached and swapped in only once every closure spliced
// cleanly, so an error leaves the old shard — and the whole partition —
// exactly as it was.
func (se *ShardedEngine) Resplit() (int, error) {
	created := 0
	for _, s := range append([]*shard(nil), se.shards...) {
		nw := s.eng.Network()
		if nw.NumFlows() == 0 {
			se.drop(s)
			continue
		}
		closures := nw.Closures()
		if len(closures) <= 1 {
			continue
		}
		// Converge once so every spliced block is a fixpoint.
		if _, err := s.eng.Analyze(); err != nil {
			return created, err
		}
		// Build the replacement shards detached: nothing below touches
		// se.shards or the routing table until every closure spliced cleanly.
		detached := make([]*shard, 0, len(closures))
		buildErr := func() error {
			for _, members := range closures {
				eng, err := NewEngine(network.New(se.topo), se.cfg)
				if err != nil {
					return err
				}
				if _, err := eng.Analyze(); err != nil { // empty fixpoint: valid for warm adoption
					return err
				}
				ns := &shard{eng: eng, owned: make(map[Resource]int)}
				for _, j := range members {
					if err := ns.eng.adoptFlow(s.eng, j); err != nil {
						return err
					}
					for _, k := range flowResources(nw.Flow(j)) {
						ns.owned[k]++
					}
				}
				detached = append(detached, ns)
			}
			return nil
		}()
		if buildErr != nil {
			return created, buildErr
		}
		// Commit point: swap the old shard for the replacements.
		se.drop(s)
		for _, ns := range detached {
			ns.seq = se.seq
			se.seq++
			se.shards = append(se.shards, ns)
			for k := range ns.owned {
				se.routes[k] = ns
			}
		}
		created += len(detached) - 1
	}
	return created, nil
}

// Remove departs the committed flow fs, matched by pointer identity
// (shards re-register the caller's *FlowSpec values, so the pointer
// survives fusion and re-splitting). Its shard is the route owner of
// any of its resources, so the lookup costs one scan of that closure,
// not of every flow. The flow leaves its shard's engine, its resource
// routes are released — departed flows leave no stale routes that
// would pull unrelated newcomers into the shard — and the shard is
// re-converged, or dropped when it is left empty. A shard whose flows
// no longer form one closure stays whole until Resplit: it decides
// exactly as its split closures would.
func (se *ShardedEngine) Remove(fs *network.FlowSpec) error {
	keys := specKeys(fs)
	var s *shard
	if len(keys) > 0 {
		s = se.routes[keys[0]]
	}
	if s == nil {
		return fmt.Errorf("core: Remove of a flow no shard holds")
	}
	nw := s.eng.Network()
	at := -1
	for i := 0; i < nw.NumFlows(); i++ {
		if nw.Flow(i) == fs {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("core: flow %q missing from the shard its routes point to", fs.Flow.Name)
	}
	if err := s.eng.RemoveFlow(at); err != nil {
		return err
	}
	se.disown(s, keys)
	if nw.NumFlows() == 0 {
		se.drop(s)
		return nil
	}
	// Removal only shrinks interference; Converge re-converges the
	// survivors without copying a result.
	s.eng.Converge()
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

// Shards returns the live shard engines in creation order. The slice
// is a copy; the engines are the live shards — treat them as read-only
// unless you own the ShardedEngine.
func (se *ShardedEngine) Shards() []*Engine {
	out := make([]*Engine, len(se.shards))
	for i, s := range se.shards {
		out[i] = s.eng
	}
	return out
}

// ValidateSpecs pre-validates a batch against the topology exactly as
// staging each spec would, without touching any shard. The sharded
// batch path uses it so a malformed spec fails the whole batch before
// any decision is made.
func (se *ShardedEngine) ValidateSpecs(specs []*network.FlowSpec) error {
	scratch := network.New(se.topo)
	for _, fs := range specs {
		if err := scratch.ValidateSpec(fs); err != nil {
			return err
		}
	}
	return nil
}

// groupByKeys computes PlaceBatch's interference groups from the
// batch members' precomputed pipeline keys, as index lists, each
// ascending, ordered by first member.
func (se *ShardedEngine) groupByKeys(keys [][]Resource) [][]int {
	if len(keys) == 1 {
		// A single spec is always its own group: skip the union-find
		// and its maps on the hot single-request path.
		return [][]int{{0}}
	}
	parent := make([]int, len(keys))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	keyOwner := make(map[Resource]int)
	shardOwner := make(map[*shard]int)
	for i, ks := range keys {
		for _, k := range ks {
			if j, ok := keyOwner[k]; ok {
				union(i, j)
			} else {
				keyOwner[k] = i
			}
			if s := se.routes[k]; s != nil {
				if j, ok := shardOwner[s]; ok {
					union(i, j)
				} else {
					shardOwner[s] = i
				}
			}
		}
	}
	groups := make(map[int][]int)
	var roots []int
	for i := range keys {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
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
	if _, err := src.Analyze(); err != nil {
		return err
	}
	if _, err := e.Analyze(); err != nil {
		return err
	}
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

// adoptFlow splices flow j of src into e: the spec is re-registered,
// the cached demands copied, and — when both engines hold converged
// state — the flow's arena block is copied at its converged values so
// the adopted flow needs no re-analysis. Otherwise the flow is adopted
// cold and marked dirty.
func (e *Engine) adoptFlow(src *Engine, j int) error {
	fs := src.an.nw.Flow(j)
	i, err := e.an.nw.AddFlow(fs)
	if err != nil {
		return err
	}
	var dem []rateDemand
	if j < len(src.an.demands) {
		dem = append([]rateDemand(nil), src.an.demands[j]...)
	}
	for len(e.an.demands) <= i {
		e.an.demands = append(e.an.demands, nil)
	}
	e.an.demands[i] = dem
	warm := e.valid && src.valid && len(src.dirty) == 0
	if !e.valid {
		e.dirty[i] = true
		return nil
	}
	e.js.addFlow(i, fs, e.an.nw.FlowResources(i))
	if !warm {
		e.appendHeader(FlowResult{Index: i, Name: fs.Flow.Name})
		e.dirty[i] = true
		return nil
	}
	copyJitterBlock(e.js, i, src.js, j)
	fr := src.flows[j]
	fr.Index = i
	e.appendHeader(fr)
	return nil
}

// copyJitterBlock overwrites dst flow i's (freshly added, cold) arena
// block with src flow j's values. The two blocks describe the same
// flow, so their shapes — frames per stage and pipeline length —
// match; resource ids may differ between the engines' networks, but
// stage positions are route-ordered in both. The block's memo stamps
// are cleared: they were counted on src's clock.
func copyJitterBlock(dst *jitterState, i int, src *jitterState, j int) {
	db, sb := &dst.blocks[i], &src.blocks[j]
	stages := len(db.rids)
	slots := int32(stages) * db.n
	copy(dst.arena[db.base:db.base+slots], src.arena[sb.base:sb.base+slots])
	clear(dst.memo[db.base : db.base+slots])
	copy(dst.extraMax[db.ebase:int(db.ebase)+stages], src.extraMax[sb.ebase:int(sb.ebase)+stages])
	copy(dst.extraValid[db.ebase:int(db.ebase)+stages], src.extraValid[sb.ebase:int(sb.ebase)+stages])
}
