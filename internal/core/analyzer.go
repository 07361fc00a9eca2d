package core

import (
	"fmt"
	"slices"

	"gmfnet/internal/ether"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// Analyzer computes response-time bounds for all flows of a network. It is
// not safe for concurrent use; create one per goroutine. It keeps no
// per-flow state between calls: Analyze builds its own jitter state,
// demands included, so an Analyzer stays correct across changes to its
// network's flow set.
type Analyzer struct {
	nw  *network.Network
	cfg Config

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
// already validate; NewAnalyzer re-checks and returns any error.
func NewAnalyzer(nw *network.Network, cfg Config) (*Analyzer, error) {
	if nw == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{nw: nw, cfg: cfg.withDefaults()}, nil
}

// demand returns flow j's per-link demand at the given rate, cached in
// the flow's block of js. A flow meets at most a handful of distinct
// link rates, so the cache is a tiny linear-scanned slice — no hashing
// on the hot path.
func (a *Analyzer) demand(js *jitterState, j int, rate units.BitRate) *gmf.Demand {
	b := &js.blocks[j]
	for _, rd := range b.dem {
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
	b.dem = append(b.dem, rateDemand{rate, d})
	return d
}

// jitterState is the analysis state of one flow set, and the one owner
// of everything the engine keeps per flow. At its core it stores
// GJ_j^{k,resource} for every flow, resource and frame: the generalized
// jitter with which frame k of flow j enters each stage of its pipeline.
// It powers the extra_j(N,i) terms of the analysis — read straight off
// the arena as the max over a stage's frames (see extraAt) — and the
// holistic iteration of Section 3.5.
//
// The jitters live in a single flat arena of picosecond values. Flow j's
// slots form one contiguous block: stage s (position in the flow's
// pipeline, route order) frame k lives at blocks[j].base + s*n_j + k.
// Stages address their own flow by position and interfering flows by the
// network's dense ResourceID, resolved with a short linear scan of the
// interferer's pipeline — no map hashing anywhere on the analysis hot
// path.
//
// blocks is the flow table, aligned with network indices: flow j's entry
// holds its arena layout, its demand at each link rate it meets, its
// status (see verdict.go) and its changed and dirty marks. Adding,
// removing, undoing or adopting a flow moves the whole entry, so the
// per-flow facts cannot drift apart. Alongside the table it maintains:
//
//   - the changed list (moved), the flows whose jitters moved since the
//     last resetChanged, which drives the engine's delta iteration;
//   - the dirty list, the flows changed since the engine's last
//     convergence (see Engine);
//   - the verdict counters over the statuses;
//   - the engine's stage memo (see Engine): per slot, the stage response
//     last computed there and the clock value it was computed at, plus
//     a change stamp per link group;
//   - optional undo journals of (offset, old value) and (flow, old
//     status) pairs, which make engine snapshots O(1) and restores
//     O(writes since the snapshot) instead of a deep copy.
//
// The engine creates one state and keeps it for its whole life; the cold
// Analyzer creates one per Analyze call. The journals serve the engine's
// snapshot window, which may add flows and remove flows it added but
// never removes an older one (see Engine.RemoveFlow). The flows and slots
// that existed at the snapshot therefore never move: the journals record
// only writes to flows below journalFlows, the flow count at the
// snapshot, and undoTo replays them and truncates everything above.
type jitterState struct {
	blocks []flowBlock
	arena  []units.Time

	// memo is the stage memo, parallel to arena (see memoSlot).
	// lastChange[g] is the clock value of the last change on link group
	// g (a link resource id, see flowBlock.group). now is the next clock
	// value, strictly above every recorded change; a memo entry is void
	// unless its stamp is above both lastChange of its group and floor,
	// which undoTo raises to void every entry at once. Only the engine
	// reads the memo, so only its state has one (memoOn). No flow ever
	// leaves the cold Analyzer's state and it arms no journal, so the
	// removal and undo paths assume a memo.
	memoOn     bool
	memo       []memoSlot
	lastChange []uint64
	now, floor uint64
	// served/evaluated count stage evaluations answered from the memo
	// and computed afresh (tests read them).
	served, evaluated int

	// moved lists, once each, the flows whose jitters changed since the
	// last resetChanged (flowBlock.changed marks them), so a sweep
	// converged when it is empty; the engine's worklist iteration
	// re-analyses only the flows whose inputs moved.
	moved []int
	// dirty lists, once each, the flows added or disturbed since the
	// engine's last convergence (flowBlock.dirty marks them).
	dirty []int

	// unsched / errcnt count the statuses that are currently not
	// schedulable / carry a stage error, so a verdict and the
	// holistic-cap probe are O(1).
	unsched int
	errcnt  int

	// maxDelta is the largest upward move written since the last
	// resetChanged: the residual ErrNoConvergence reports at cap
	// exhaustion.
	maxDelta units.Time

	// journal records (slot, old value) and statusJournal (flow, old
	// status) for every write to a flow below journalFlows since the last
	// beginJournal, newest last; undoTo replays both backwards. Those
	// flows never move inside a snapshot window, so their slots are
	// exactly the arena below its length at the snapshot. journalFlows is
	// zero when no snapshot is live.
	journal       []undoEntry
	statusJournal []statusOp
	journalFlows  int
}

// memoSlot is one arena slot's stage memo: the stage response last
// computed there and the clock value it was computed at (zero: never).
type memoSlot struct {
	r  units.Time
	at uint64
}

// flowBlock is one flow's entry in the flow table: where its slots lie
// inside the arena, and the per-flow facts the analysis keeps beside
// them.
type flowBlock struct {
	base int32 // arena offset of stage 0, frame 0
	n    int32 // frames per stage
	// changed / dirty mark the flow's membership of jitterState.moved /
	// dirty.
	changed, dirty bool
	rids           []network.ResourceID
	// dem caches the flow's demand at each link rate it meets (see
	// Analyzer.demand).
	dem []rateDemand
	// st is the flow's status after its last pass.
	st flowStatus
}

// group returns the link group of stage pos: the resource at pos for a
// link stage (first hop or egress), and for an in(N) stage the link it
// is reached over, at pos-1 — the ingress stage reads the flows of that
// link, the same flows as the link stage. It equals the network's
// Stage(rids[pos]).Group without the lookup.
func (b *flowBlock) group(pos int) network.ResourceID { return b.rids[pos&^1] }

type undoEntry struct {
	off int32
	old units.Time
}

// jitterMark freezes the state at snapshot time beyond what the journals
// record: the extents undoTo truncates back to, the dirty list and the
// verdict counters.
type jitterMark struct {
	arenaLen, numFlows int
	dirty              []int
	unsched, errcnt    int
}

// newJitterState initialises the holistic starting point: every flow's
// jitter at its first resource is its source jitter GJ_j^k; the jitter at
// every downstream resource starts at zero. memo selects whether the
// state keeps the stage memo (the engine's does).
func newJitterState(nw *network.Network, memo bool) *jitterState {
	js := &jitterState{memoOn: memo}
	for j, fs := range nw.Flows() {
		js.addFlow(j, fs, nw.FlowResources(j))
	}
	return js
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
		base: int32(len(js.arena)),
		n:    int32(n),
		rids: rids,
	}
	js.blocks = append(js.blocks, b)
	js.arena = append(js.arena, make([]units.Time, len(rids)*n)...)
	if js.memoOn {
		js.memo = append(js.memo, make([]memoSlot, len(rids)*n)...)
		groups := len(js.lastChange)
		for _, g := range rids {
			groups = max(groups, int(g)+1)
		}
		js.lastChange = append(js.lastChange, make([]uint64, groups-len(js.lastChange))...)
		js.touchFlow(&b)
	}
	for k := 0; k < n; k++ {
		js.arena[int(b.base)+k] = fs.Flow.Frames[k].Jitter
	}
}

// numFlows returns the number of flows with slots in the arena.
func (js *jitterState) numFlows() int { return len(js.blocks) }

// set records the entry jitter of frame k at stage pos of flow j's
// pipeline, journaling the old value of a slot that predates the live
// snapshot and tracking whether anything changed since the last
// resetChanged.
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
	if j < js.journalFlows {
		js.journal = append(js.journal, undoEntry{off: off, old: old})
	}
	js.arena[off] = v
	js.touch(b.group(pos))
	if d := v - old; d > js.maxDelta {
		js.maxDelta = d
	}
	if !b.changed {
		b.changed = true
		js.moved = append(js.moved, j)
	}
}

// get returns the entry jitter of frame k at stage pos of flow j.
func (js *jitterState) get(j, pos, k int) units.Time {
	b := &js.blocks[j]
	return js.arena[b.base+int32(pos)*b.n+int32(k)]
}

// touch records a change on link group g: every memo entry of the
// group computed before it is void. Without a memo it does nothing.
func (js *jitterState) touch(g network.ResourceID) {
	if !js.memoOn {
		return
	}
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

// extraAt returns extra_j at stage pos of flow j's own pipeline: the
// largest entry jitter over the flow's frames, the quantity added to
// interference windows, read off the arena.
func (js *jitterState) extraAt(j, pos int) units.Time {
	b := &js.blocks[j]
	base := b.base + int32(pos)*b.n
	var m units.Time
	for _, v := range js.arena[base : base+b.n] {
		m = max(m, v)
	}
	return m
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
	js.maxDelta = 0
	for _, j := range js.moved {
		js.blocks[j].changed = false
	}
	js.moved = js.moved[:0]
}

// markDirty puts flow j on the dirty list, once.
func (js *jitterState) markDirty(j int) {
	if b := &js.blocks[j]; !b.dirty {
		b.dirty = true
		js.dirty = append(js.dirty, j)
	}
}

// clearDirty empties the dirty list.
func (js *jitterState) clearDirty() {
	for _, j := range js.dirty {
		js.blocks[j].dirty = false
	}
	js.dirty = js.dirty[:0]
}

// coldReset restores flow j's slots to the cold-start assignment. The
// incremental engine applies it to every flow affected by a departure
// when the pipelines are cyclic (or additions are still pending), so that
// the subsequent delta iteration ascends to the least fixpoint from below
// instead of descending from the stale one, which there could stop at a
// larger fixpoint; on acyclic pipelines the fixpoint is unique and the
// engine descends instead (see Engine.RemoveFlow). Overwritten slots
// that predate the live snapshot are journaled like any other write, so
// a restore rolls them back too.
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
		for k := 0; k < n; k++ {
			v := cold(s, k)
			if old := js.arena[base+k]; old != v {
				if j < js.journalFlows {
					js.journal = append(js.journal, undoEntry{off: int32(base + k), old: old})
				}
				js.arena[base+k] = v
			}
		}
	}
}

// removeFlowReindex drops flow i's entry and slots, compacts the arena
// and shifts every flow above i down by one, mirroring
// Network.RemoveFlow. Entries move whole, marks and status included; the
// verdict counters drop flow i's status, and the changed and dirty lists
// are renumbered, so no stale index reaches the next delta worklist.
// Under a live snapshot flow i was added after it, so every entry that
// moves lies above journalFlows and the journals stay valid.
func (js *jitterState) removeFlowReindex(i int) {
	b := js.blocks[i]
	js.touchFlow(&b)
	js.count(b.st, -1)
	slots := int32(len(b.rids)) * b.n
	copy(js.arena[b.base:], js.arena[b.base+slots:])
	js.arena = js.arena[:int32(len(js.arena))-slots]
	copy(js.memo[b.base:], js.memo[b.base+slots:])
	js.memo = js.memo[:len(js.arena)]
	js.blocks = slices.Delete(js.blocks, i, i+1)
	for j := i; j < len(js.blocks); j++ {
		js.blocks[j].base -= slots
	}
	js.moved = shiftDown(js.moved, i)
	js.dirty = shiftDown(js.dirty, i)
}

// shiftDown renumbers a flow list after flow i left: entry i is dropped
// and higher indices shift down by one, in place.
func shiftDown(list []int, i int) []int {
	out := list[:0]
	for _, j := range list {
		switch {
		case j == i:
		case j > i:
			out = append(out, j-1)
		default:
			out = append(out, j)
		}
	}
	return out
}

// beginJournal starts a fresh undo epoch: the journals are truncated
// (any older snapshot becomes unrestorable) and later writes to the
// slots and statuses that exist now record their old values. It returns
// the mark undoTo needs to pop flows added after the snapshot and put
// back the dirty list and the verdict counters.
func (js *jitterState) beginJournal() jitterMark {
	js.endJournal()
	js.journalFlows = len(js.blocks)
	return jitterMark{
		arenaLen: len(js.arena),
		numFlows: len(js.blocks),
		dirty:    slices.Clone(js.dirty),
		unsched:  js.unsched,
		errcnt:   js.errcnt,
	}
}

// endJournal disarms journaling and drops the recorded history; the
// engine calls it when the outstanding snapshot is discarded, so a long
// snapshot-free write stream does not keep accumulating undo entries.
func (js *jitterState) endJournal() {
	js.journal = js.journal[:0]
	js.statusJournal = js.statusJournal[:0]
	js.journalFlows = 0
}

// undoTo rolls the state back to the mark: journaled jitter and status
// writes are replayed backwards, every entry and slot above the mark — the flows added since, whatever they hold — is truncated
// away, and the dirty list and verdict counters are the mark's. The
// statuses are then the mark's bit for bit, so its counters match them.
// Raising the memo floor voids every memo entry in O(1): the replay
// moves jitters and membership without touching their groups. Cost is
// proportional to the writes since beginJournal and the lengths of the
// changed and dirty lists, not to the arena size.
func (js *jitterState) undoTo(m jitterMark) {
	js.floor = js.now
	js.now++
	for i := len(js.journal) - 1; i >= 0; i-- {
		e := js.journal[i]
		js.arena[e.off] = e.old
	}
	for k := len(js.statusJournal) - 1; k >= 0; k-- {
		op := js.statusJournal[k]
		js.blocks[op.i].st = op.old
	}
	js.endJournal()
	js.resetChanged()
	js.clearDirty()
	js.arena = js.arena[:m.arenaLen]
	js.memo = js.memo[:m.arenaLen]
	clear(js.blocks[m.numFlows:]) // drop the popped flows' demands
	js.blocks = js.blocks[:m.numFlows]
	for _, j := range m.dirty {
		js.markDirty(j)
	}
	js.unsched, js.errcnt = m.unsched, m.errcnt
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
