package core

import (
	"fmt"
	"sort"

	"gmfnet/internal/ether"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// Analyzer computes response-time bounds for all flows of a network. It is
// not safe for concurrent use; create one per goroutine. Its caches are
// keyed by flow index, so an Analyzer must not outlive a change to the
// network's flow set made behind its back (Network.RemoveFlow shifts
// indices): build a fresh Analyzer per flow set, or use Engine, which
// keeps the caches aligned across its own AddFlow/RemoveFlow.
type Analyzer struct {
	nw  *network.Network
	cfg Config

	// demands caches each flow's per-link-rate demand, indexed by flow.
	// A flow meets at most a handful of distinct link rates, so the inner
	// entry is a tiny linear-scanned slice — no hashing on the hot path.
	// The index alignment is maintained by the engine across removals;
	// one-shot analyzers are built fresh per flow set.
	demands [][]rateDemand

	// demScratch/extScratch are reusable buffers for the per-stage hoists
	// of interferer demands and entry jitters (see stages.go); hepScratch
	// backs the per-egress hep set the same way.
	demScratch []*gmf.Demand
	extScratch []units.Time
	hepScratch []int
}

type rateDemand struct {
	rate units.BitRate
	d    *gmf.Demand
}

// NewAnalyzer returns an analyzer over the given network. The network must
// already validate; NewAnalyzer re-checks and returns any error. The
// analyzer is bound to the network's current flow indices; rebuild it
// after adding or removing flows directly on the network.
func NewAnalyzer(nw *network.Network, cfg Config) (*Analyzer, error) {
	if nw == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{
		nw:      nw,
		cfg:     cfg.withDefaults(),
		demands: make([][]rateDemand, nw.NumFlows()),
	}, nil
}

// demand returns the (cached) per-link demand of flow j at the given rate.
func (a *Analyzer) demand(j int, rate units.BitRate) *gmf.Demand {
	for len(a.demands) <= j {
		a.demands = append(a.demands, nil)
	}
	for _, rd := range a.demands[j] {
		if rd.rate == rate {
			return rd.d
		}
	}
	fs := a.nw.Flow(j)
	d, err := ether.DemandFor(fs.Flow, rate, fs.RTP)
	if err != nil {
		// The network validated every flow, so packetisation cannot fail;
		// reaching this is a programming error.
		panic(fmt.Sprintf("core: demand for validated flow %q: %v", fs.Flow.Name, err))
	}
	a.demands[j] = append(a.demands[j], rateDemand{rate, d})
	return d
}

// removeFlowDemand drops flow i's demand cache entry and shifts higher
// flow indices down by one, mirroring Network.RemoveFlow.
func (a *Analyzer) removeFlowDemand(i int) {
	if i >= 0 && i < len(a.demands) {
		a.demands = append(a.demands[:i], a.demands[i+1:]...)
	}
}

// insertDemandAt is the inverse of removeFlowDemand: it re-links flow
// i's cached demands when Engine.Restore resurrects a departure,
// shifting higher indices up by one. The cache may legitimately be
// shorter than the flow count (entries are filled lazily); missing slots
// are padded so the insert lands at the right index.
func (a *Analyzer) insertDemandAt(i int, entry []rateDemand) {
	for len(a.demands) < i {
		a.demands = append(a.demands, nil)
	}
	a.demands = append(a.demands, nil)
	copy(a.demands[i+1:], a.demands[i:])
	a.demands[i] = entry
}

// resetDemands discards the whole cache; Engine.Invalidate uses it after
// out-of-band flow-set changes that may have shifted indices.
func (a *Analyzer) resetDemands() {
	a.demands = make([][]rateDemand, a.nw.NumFlows())
}

// jitterState stores GJ_j^{k,resource} for every flow, resource and frame:
// the generalized jitter with which frame k of flow j enters each stage of
// its pipeline. It powers the extra_j(N,i) terms of the analysis and the
// holistic iteration of Section 3.5.
//
// The state is a single flat arena of picosecond values. Flow j's slots
// form one contiguous block: stage s (position in the flow's pipeline,
// route order) frame k lives at blocks[j].base + s*n_j + k. Stages address
// their own flow by position and interfering flows by the network's dense
// ResourceID, resolved with a short linear scan of the interferer's
// pipeline — no map hashing anywhere on the analysis hot path.
//
// Alongside the arena it maintains:
//
//   - a per-(flow, stage) cache of max-over-frames entry jitter (the
//     extra_j term), kept incrementally valid under writes;
//   - the changed-flow worklist driving the engine's delta iteration;
//   - the engine's stage memo (see Engine): per slot, the stage response
//     last computed there and the clock value it was computed at, plus
//     a change stamp per link group;
//   - an optional undo journal of (offset, old value) pairs, which makes
//     engine snapshots O(1) and restores O(writes since the snapshot)
//     instead of a deep copy of the whole assignment.
//
// Lazy-compaction invariant (restore-across-removal). While the journal
// is armed, removeFlow does NOT compact the arena: the departed flow's
// block is unlinked from blocks but its slots stay in place as a
// tombstone, recorded in structJournal (for resurrection by undoTo) and
// in tombs (for later reclamation). Because nothing moves, every
// absolute (off, eidx) pair in the write journal — and every live
// block's base — remains valid across any number of removals, which is
// what lets one snapshot span departures. Tombstones exist only while a
// journal is armed: endJournal (snapshot discarded) and beginJournal (a
// new snapshot supersedes the old one) compact them away and re-base the
// surviving blocks, and undoTo re-links them instead. With no journal
// armed, removeFlow compacts eagerly as before (removeFlowReindex).
type jitterState struct {
	blocks []flowBlock
	arena  []units.Time

	// extraMax[e] caches max over frames of one (flow, stage) block;
	// extraValid[e] says whether the cache reflects the arena.
	extraMax   []units.Time
	extraValid []bool

	// memo is the stage memo, parallel to arena (see memoSlot).
	// lastChange[g] is the clock value of the last change on link group
	// g (a link resource id, see flowBlock.group). now is the next clock
	// value, strictly above every recorded change; a memo entry is void
	// unless its stamp is above both lastChange of its group and floor,
	// which undoTo raises to void every entry at once. Only the engine
	// reads the memo; every state keeps it aligned with the arena.
	memo       []memoSlot
	lastChange []uint64
	now, floor uint64
	// served/evaluated count stage evaluations answered from the memo
	// and computed afresh (tests read them).
	served, evaluated int

	changed bool
	// changedMark/changedList record which flows' jitters changed since
	// the last resetChanged; the incremental engine's worklist iteration
	// uses them to re-analyse only the flows whose inputs actually moved.
	changedMark []bool
	changedList []int

	// maxDelta is the largest upward move written since the last
	// resetChanged: the residual ErrNoConvergence reports at cap
	// exhaustion.
	maxDelta units.Time

	// journal records (slot, old value) for every write since the last
	// beginJournal, newest last; undoTo replays it backwards.
	journal   []undoEntry
	journalOn bool

	// structJournal records the flows tombstoned since beginJournal, in
	// removal order; undoTo re-inserts them backwards. tombs lists the
	// same blocks' dead arena extents for compaction once the journal is
	// resolved (see the lazy-compaction invariant above).
	structJournal []structUndo
	tombs         []flowBlock
}

// structUndo records one tombstoned flow: the index it was removed from
// and its (still allocated) block, so undoTo can re-link it in place.
type structUndo struct {
	index int
	block flowBlock
}

// memoSlot is one arena slot's stage memo: the stage response last
// computed there and the clock value it was computed at (zero: never).
type memoSlot struct {
	r  units.Time
	at uint64
}

// flowBlock locates one flow's slots inside the arena.
type flowBlock struct {
	base  int32 // arena offset of stage 0, frame 0
	ebase int32 // extraMax/extraValid offset of stage 0
	n     int32 // frames per stage
	rids  []network.ResourceID
}

// group returns the link group of stage pos: the resource at pos for a
// link stage (first hop or egress), and for an in(N) stage the link it
// is reached over, at pos-1 — the ingress stage reads FlowsOn of that
// link, the same flows as the link stage.
func (b *flowBlock) group(pos int) network.ResourceID { return b.rids[pos&^1] }

type undoEntry struct {
	off  int32
	eidx int32
	old  units.Time
}

// jitterMark freezes the arena extents at snapshot time so undoTo can pop
// flows added afterwards.
type jitterMark struct {
	arenaLen, eLen, numFlows int
}

// newJitterState initialises the holistic starting point: every flow's
// jitter at its first resource is its source jitter GJ_j^k; the jitter at
// every downstream resource starts at zero.
func newJitterState(nw *network.Network) *jitterState {
	js := &jitterState{}
	for j, fs := range nw.Flows() {
		js.addFlow(j, fs, nw.FlowResources(j))
	}
	return js
}

// flowResources lists the pipeline resources of a flow in route order:
// first link, then (ingress, egress link) per intermediate switch. The
// order matches Network.FlowResources, which interns the same pipeline as
// dense ids.
func flowResources(fs *network.FlowSpec) []Resource {
	out := make([]Resource, 1+2*(len(fs.Route)-2))
	for pos := range out {
		out[pos] = stageResource(fs.Route, pos)
	}
	return out
}

// addFlow appends cold-start slots for flow j: the source jitter at the
// first resource, zero everywhere downstream — exactly the entries
// newJitterState creates. rids is the flow's interned pipeline.
func (js *jitterState) addFlow(j int, fs *network.FlowSpec, rids []network.ResourceID) {
	if j != len(js.blocks) {
		panic(fmt.Sprintf("core: jitter addFlow out of order: flow %d with %d blocks", j, len(js.blocks)))
	}
	n := fs.Flow.N()
	b := flowBlock{
		base:  int32(len(js.arena)),
		ebase: int32(len(js.extraMax)),
		n:     int32(n),
		rids:  rids,
	}
	js.blocks = append(js.blocks, b)
	js.arena = append(js.arena, make([]units.Time, len(rids)*n)...)
	js.memo = append(js.memo, make([]memoSlot, len(rids)*n)...)
	groups := len(js.lastChange)
	for _, g := range rids {
		groups = max(groups, int(g)+1)
	}
	js.lastChange = append(js.lastChange, make([]uint64, groups-len(js.lastChange))...)
	js.touchFlow(&b)
	js.extraMax = append(js.extraMax, make([]units.Time, len(rids))...)
	js.extraValid = append(js.extraValid, make([]bool, len(rids))...)
	js.changedMark = append(js.changedMark, false)
	var m units.Time
	for k := 0; k < n; k++ {
		v := fs.Flow.Frames[k].Jitter
		js.arena[int(b.base)+k] = v
		if v > m {
			m = v
		}
	}
	// All caches start valid: stage 0 holds the max source jitter, the
	// zeroed downstream stages hold zero.
	for s := range rids {
		js.extraValid[int(b.ebase)+s] = true
	}
	if len(rids) > 0 {
		js.extraMax[b.ebase] = m
	}
}

// numFlows returns the number of flows with slots in the arena.
func (js *jitterState) numFlows() int { return len(js.blocks) }

// set records the entry jitter of frame k at stage pos of flow j's
// pipeline, journaling the old value when a snapshot is outstanding and
// tracking whether anything changed since the last resetChanged.
func (js *jitterState) set(j, pos, k int, v units.Time) {
	b := &js.blocks[j]
	if pos < 0 || pos >= len(b.rids) || k < 0 || int32(k) >= b.n {
		panic(fmt.Sprintf("core: jitter set out of range: flow %d stage %d frame %d", j, pos, k))
	}
	off := b.base + int32(pos)*b.n + int32(k)
	old := js.arena[off]
	if old == v {
		return
	}
	eidx := b.ebase + int32(pos)
	if js.journalOn {
		js.journal = append(js.journal, undoEntry{off: off, eidx: eidx, old: old})
	}
	js.arena[off] = v
	js.touch(b.group(pos))
	js.changed = true
	if d := v - old; d > js.maxDelta {
		js.maxDelta = d
	}
	if !js.changedMark[j] {
		js.changedMark[j] = true
		js.changedList = append(js.changedList, j)
	}
	if js.extraValid[eidx] {
		switch {
		case v >= js.extraMax[eidx]:
			js.extraMax[eidx] = v
		case old == js.extraMax[eidx]:
			js.extraValid[eidx] = false
		}
	}
}

// get returns the entry jitter of frame k at stage pos of flow j.
func (js *jitterState) get(j, pos, k int) units.Time {
	b := &js.blocks[j]
	return js.arena[b.base+int32(pos)*b.n+int32(k)]
}

// touch records a change on link group g: every memo entry of the
// group computed before it is void.
func (js *jitterState) touch(g network.ResourceID) {
	js.lastChange[g] = js.now
	js.now++
}

// touchFlow touches every link group of a pipeline: a flow joining or
// leaving changes the membership (and so the hep sets and ingress
// interferers) of each link it crosses.
func (js *jitterState) touchFlow(b *flowBlock) {
	for pos := 0; pos < len(b.rids); pos += 2 {
		js.touch(b.rids[pos])
	}
}

// current reports whether the memo entry at arena offset off, a slot of
// stage pos of b, was computed after the last change on its link group
// and after the last undo.
func (js *jitterState) current(b *flowBlock, pos int, off int32) bool {
	st := js.memo[off].at
	return st > js.floor && st > js.lastChange[b.group(pos)]
}

// cached returns the stage response memoized at frame k of stage pos of
// flow j, if it is current.
func (js *jitterState) cached(j, pos, k int) (units.Time, bool) {
	b := &js.blocks[j]
	off := b.base + int32(pos)*b.n + int32(k)
	if js.current(b, pos, off) {
		js.served++
		return js.memo[off].r, true
	}
	js.evaluated++
	return 0, false
}

// remember memoizes the response just computed at frame k of stage pos
// of flow j, stamped with the current clock.
func (js *jitterState) remember(j, pos, k int, r units.Time) {
	b := &js.blocks[j]
	off := b.base + int32(pos)*b.n + int32(k)
	js.memo[off] = memoSlot{r: r, at: js.now}
}

// settled reports whether every stage of flow j would be served from
// the memo. A pass over such a flow changes nothing — every entry
// jitter it writes is already in place (each one was written from the
// memoized responses before it, and rewriting one touches its group) —
// so the engine skips it; its slots count as served.
func (js *jitterState) settled(j int) bool {
	b := &js.blocks[j]
	for pos := range b.rids {
		lim := max(js.floor, js.lastChange[b.group(pos)])
		base := b.base + int32(pos)*b.n
		for _, m := range js.memo[base : base+b.n] {
			if m.at <= lim {
				return false
			}
		}
	}
	js.served += len(b.rids) * int(b.n)
	return true
}

// extraAt returns extra_j at stage pos of flow j's own pipeline: the
// largest entry jitter over the flow's frames, the quantity added to
// interference windows. It refreshes the cache when a write invalidated it.
func (js *jitterState) extraAt(j, pos int) units.Time {
	b := &js.blocks[j]
	eidx := b.ebase + int32(pos)
	if !js.extraValid[eidx] {
		var m units.Time
		base := b.base + int32(pos)*b.n
		for _, v := range js.arena[base : base+b.n] {
			if v > m {
				m = v
			}
		}
		js.extraMax[eidx] = m
		js.extraValid[eidx] = true
	}
	return js.extraMax[eidx]
}

// extraOf returns extra_j of flow j at the resource with the given dense
// id, or zero when the flow's pipeline does not cross it. Interference
// sums use it for foreign flows; the pipeline scan is a handful of int32
// compares.
func (js *jitterState) extraOf(j int, rid network.ResourceID) units.Time {
	if j < 0 || j >= len(js.blocks) {
		return 0
	}
	for pos, r := range js.blocks[j].rids {
		if r == rid {
			return js.extraAt(j, pos)
		}
	}
	return 0
}

func (js *jitterState) resetChanged() {
	js.changed = false
	js.maxDelta = 0
	for _, j := range js.changedList {
		js.changedMark[j] = false
	}
	js.changedList = js.changedList[:0]
}

// coldReset restores flow j's slots to the cold-start assignment. The
// incremental engine applies it to every flow affected by a departure
// when the pipelines are cyclic (or additions are still pending), so that
// the subsequent delta iteration ascends to the least fixpoint from below
// instead of descending from the stale one, which there could stop at a
// larger fixpoint; on acyclic pipelines the fixpoint is unique and the
// engine descends instead (see Engine.RemoveFlow). With a
// journal armed the overwritten values are recorded like any other write,
// so a snapshot restore spanning the departure rolls them back too.
func (js *jitterState) coldReset(j int, fs *network.FlowSpec) {
	b := &js.blocks[j]
	n := int(b.n)
	js.touchFlow(b)
	cold := func(s, k int) units.Time {
		if s == 0 {
			return fs.Flow.Frames[k].Jitter
		}
		return 0
	}
	for s := range b.rids {
		base := int(b.base) + s*n
		var m units.Time
		for k := 0; k < n; k++ {
			v := cold(s, k)
			if old := js.arena[base+k]; old != v {
				if js.journalOn {
					js.journal = append(js.journal, undoEntry{
						off: int32(base + k), eidx: b.ebase + int32(s), old: old,
					})
				}
				js.arena[base+k] = v
			}
			if v > m {
				m = v
			}
		}
		js.extraMax[int(b.ebase)+s] = m
		js.extraValid[int(b.ebase)+s] = true
	}
}

// removeFlow drops flow i's slots, mirroring Network.RemoveFlow's index
// compaction. With no journal armed it compacts the arena eagerly
// (removeFlowReindex); with an armed journal it tombstones the block
// instead — nothing moves, so the snapshot's journaled offsets and the
// surviving blocks' bases stay valid and a later undoTo can roll back
// across the departure (see the lazy-compaction invariant on
// jitterState).
func (js *jitterState) removeFlow(i int) {
	if js.journalOn {
		js.tombstoneFlow(i)
		return
	}
	js.removeFlowReindex(i)
}

// removeFlowReindex is the eager path: it drops flow i's slots, compacts
// the arena and shifts every tracking structure — including the
// changed-flow worklist, which the pre-arena implementation left
// unshifted, leaking stale indices into the next delta worklist — down by
// one. Only legal with no journal armed: compaction moves slots out from
// under journaled offsets.
func (js *jitterState) removeFlowReindex(i int) {
	b := js.blocks[i]
	js.touchFlow(&b)
	stages := int32(len(b.rids))
	slots := stages * b.n
	copy(js.arena[b.base:], js.arena[b.base+slots:])
	js.arena = js.arena[:int32(len(js.arena))-slots]
	copy(js.memo[b.base:], js.memo[b.base+slots:])
	js.memo = js.memo[:len(js.arena)]
	copy(js.extraMax[b.ebase:], js.extraMax[b.ebase+stages:])
	js.extraMax = js.extraMax[:int32(len(js.extraMax))-stages]
	copy(js.extraValid[b.ebase:], js.extraValid[b.ebase+stages:])
	js.extraValid = js.extraValid[:int32(len(js.extraValid))-stages]
	js.blocks = append(js.blocks[:i], js.blocks[i+1:]...)
	for j := i; j < len(js.blocks); j++ {
		js.blocks[j].base -= slots
		js.blocks[j].ebase -= stages
	}
	js.shiftChangedDown(i)
	js.journal = js.journal[:0]
	js.journalOn = false
}

// tombstoneFlow is the journaled path of removeFlow: flow i's block is
// unlinked from the index structures but its arena slots stay allocated
// in place, recorded in structJournal for resurrection and in tombs for
// compaction once the journal is resolved.
func (js *jitterState) tombstoneFlow(i int) {
	b := js.blocks[i]
	js.touchFlow(&b)
	js.structJournal = append(js.structJournal, structUndo{index: i, block: b})
	js.tombs = append(js.tombs, b)
	js.blocks = append(js.blocks[:i], js.blocks[i+1:]...)
	js.shiftChangedDown(i)
}

// shiftChangedDown rewrites the changed-flow worklist after flow i left:
// entry i is dropped and higher indices shift down by one, keeping
// changedMark aligned with blocks.
func (js *jitterState) shiftChangedDown(i int) {
	list := js.changedList[:0]
	for _, j := range js.changedList {
		switch {
		case j == i:
		case j > i:
			list = append(list, j-1)
		default:
			list = append(list, j)
		}
	}
	js.changedList = list
	js.changedMark = js.changedMark[:len(js.blocks)]
	for j := range js.changedMark {
		js.changedMark[j] = false
	}
	for _, j := range js.changedList {
		js.changedMark[j] = true
	}
}

// compactTombs reclaims the tombstoned extents left by journaled
// removals: live arena content slides down over the dead blocks and the
// surviving blocks' bases are rebased. Must only run with no journal
// armed — it is called from endJournal and beginJournal, the two places
// where an outstanding snapshot dies.
func (js *jitterState) compactTombs() {
	if len(js.tombs) == 0 {
		return
	}
	sort.Slice(js.tombs, func(a, b int) bool { return js.tombs[a].base < js.tombs[b].base })
	// Slide the live segments between consecutive tombstones leftward.
	dst := js.tombs[0].base
	edst := js.tombs[0].ebase
	for t := 0; t < len(js.tombs); t++ {
		b := js.tombs[t]
		stages := int32(len(b.rids))
		src := b.base + stages*b.n
		esrc := b.ebase + stages
		end := int32(len(js.arena))
		eend := int32(len(js.extraMax))
		if t+1 < len(js.tombs) {
			end = js.tombs[t+1].base
			eend = js.tombs[t+1].ebase
		}
		copy(js.arena[dst:], js.arena[src:end])
		copy(js.memo[dst:], js.memo[src:end])
		dst += end - src
		copy(js.extraMax[edst:], js.extraMax[esrc:eend])
		copy(js.extraValid[edst:], js.extraValid[esrc:eend])
		edst += eend - esrc
	}
	js.arena = js.arena[:dst]
	js.memo = js.memo[:dst]
	js.extraMax = js.extraMax[:edst]
	js.extraValid = js.extraValid[:edst]
	for j := range js.blocks {
		var slots, stages int32
		for _, tb := range js.tombs {
			if tb.base < js.blocks[j].base {
				slots += int32(len(tb.rids)) * tb.n
				stages += int32(len(tb.rids))
			}
		}
		js.blocks[j].base -= slots
		js.blocks[j].ebase -= stages
	}
	js.tombs = js.tombs[:0]
}

// beginJournal starts a fresh undo epoch: the journal is truncated (any
// older snapshot becomes unrestorable), tombstones left by that
// superseded snapshot's removals are compacted away, and subsequent
// writes record their old values. It returns the mark undoTo needs to
// also pop flows added after the snapshot.
func (js *jitterState) beginJournal() jitterMark {
	js.journal = js.journal[:0]
	js.journalOn = false
	js.structJournal = js.structJournal[:0]
	js.compactTombs()
	js.journalOn = true
	return jitterMark{
		arenaLen: len(js.arena),
		eLen:     len(js.extraMax),
		numFlows: len(js.blocks),
	}
}

// endJournal disarms journaling, drops the recorded history and compacts
// any tombstoned blocks; the engine calls it when the outstanding
// snapshot is discarded, so a long snapshot-free write stream does not
// keep accumulating undo entries or dead arena extents.
func (js *jitterState) endJournal() {
	js.journal = js.journal[:0]
	js.journalOn = false
	js.structJournal = js.structJournal[:0]
	js.compactTombs()
}

// undoTo rolls the state back to the mark: journaled writes are replayed
// backwards, tombstoned blocks are re-linked at their recorded indices in
// reverse removal order (their slots never moved, so the block records
// are still exact), and flows added after the mark are popped. After the
// re-insertions every flow alive at the snapshot sits at its original
// index and every post-snapshot addition at the tail, so the final
// truncation to the mark restores the snapshot layout bit-identically.
// Raising the memo floor voids every memo entry in O(1): the replay
// moves jitters and membership without touching their groups. Cost is
// proportional to the writes and removals since beginJournal, plus a
// changed-mark wipe, not to the arena size.
func (js *jitterState) undoTo(m jitterMark) {
	js.floor = js.now
	js.now++
	for i := len(js.journal) - 1; i >= 0; i-- {
		e := js.journal[i]
		js.arena[e.off] = e.old
		js.extraValid[e.eidx] = false
	}
	js.journal = js.journal[:0]
	js.journalOn = false
	for i := len(js.structJournal) - 1; i >= 0; i-- {
		u := js.structJournal[i]
		js.blocks = append(js.blocks, flowBlock{})
		copy(js.blocks[u.index+1:], js.blocks[u.index:])
		js.blocks[u.index] = u.block
	}
	js.structJournal = js.structJournal[:0]
	js.tombs = js.tombs[:0]
	js.arena = js.arena[:m.arenaLen]
	js.memo = js.memo[:m.arenaLen]
	js.extraMax = js.extraMax[:m.eLen]
	js.extraValid = js.extraValid[:m.eLen]
	js.blocks = js.blocks[:m.numFlows]
	if cap(js.changedMark) < m.numFlows {
		js.changedMark = make([]bool, m.numFlows)
	}
	js.changedMark = js.changedMark[:m.numFlows]
	for j := range js.changedMark {
		js.changedMark[j] = false
	}
	js.changedList = js.changedList[:0]
	js.changed = false
}

// clone deep-copies the state, without its journal and with an empty
// memo. The undo-log restore path replaced it in the engine; it remains
// the oracle for differential tests asserting that undo rollback is
// bit-identical to a deep copy.
func (js *jitterState) clone() *jitterState {
	out := &jitterState{
		blocks:      make([]flowBlock, len(js.blocks)),
		arena:       append([]units.Time(nil), js.arena...),
		memo:        make([]memoSlot, len(js.arena)),
		lastChange:  make([]uint64, len(js.lastChange)),
		extraMax:    append([]units.Time(nil), js.extraMax...),
		extraValid:  append([]bool(nil), js.extraValid...),
		changed:     js.changed,
		changedMark: append([]bool(nil), js.changedMark...),
		changedList: append([]int(nil), js.changedList...),
	}
	copy(out.blocks, js.blocks)
	return out
}

// equalAssignment reports whether two states hold bit-identical jitter
// assignments (arena contents and layout).
func (js *jitterState) equalAssignment(other *jitterState) bool {
	if len(js.arena) != len(other.arena) || len(js.blocks) != len(other.blocks) {
		return false
	}
	for i := range js.arena {
		if js.arena[i] != other.arena[i] {
			return false
		}
	}
	for i := range js.blocks {
		if js.blocks[i].base != other.blocks[i].base || js.blocks[i].n != other.blocks[i].n {
			return false
		}
	}
	return true
}
