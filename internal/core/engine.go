package core

import (
	"fmt"
	"sort"

	"gmfnet/internal/network"
)

// Engine is a persistent, warm-startable analysis engine for online
// admission control. Where Analyzer is a one-shot object that starts the
// holistic iteration of Section 3.5 cold on every call, an Engine lives
// across a stream of requests and keeps four pieces of state warm:
//
//   - the per-flow demand cache, so packetisation (eq. 1) and the
//     request-bound tables are computed once per flow, not once per call;
//   - the last converged jitter assignment — a flat arena indexed by
//     (flow, pipeline stage, frame) — so a subsequent analysis warm
//     starts at the previous fixpoint instead of at the cold-start point
//     (the holistic operator is monotone, so warm iterates still converge
//     to the exact least fixpoint after additions, and after departures
//     on acyclic pipelines, whose fixpoint is unique, they descend to
//     it — see RemoveFlow);
//   - the network's resource→flows interference index, so a change to one
//     flow re-analyses only the flows whose pipelines transitively share a
//     resource with it, falling back to a full pass when the affected
//     set is the whole network;
//   - a stage memo beside the jitter arena: per (flow, stage, frame) slot,
//     the stage response and the clock value it was computed at. A stage
//     is a fixpoint over one directed link, its link group: the link
//     itself for a first-hop or egress stage, the link it is reached
//     over for an in(N) stage, which reads the same flows. Its response
//     is a pure function of the flows on that link (their priorities and
//     demands are fixed per flow), their entry jitters at the stage's
//     resource, the flow's own entry jitters there and topology
//     constants (rate, propagation, CIRC). Every change to one of these
//     stamps the group: a jitter write that moves a value, a cold reset
//     of a flow, and a flow joining or leaving (every link group of its
//     pipeline). A memo entry newer than its group's stamp therefore
//     holds exactly the bits a recomputation would return, and a pass
//     serves it instead; a worklist flow whose every entry is current is
//     skipped outright, since its pass would write nothing new. Restore
//     voids the whole memo in O(1) by raising a floor, and a block
//     adopted from another engine starts with an empty memo. The cold
//     Analyzer keeps no memo, so it stays an independent referee.
//
// Results are published copy-on-read: the engine keeps one live slice of
// per-flow result headers, stamps each header with the generation that
// last wrote it, and AnalyzeView returns O(1) immutable ResultViews
// sharing those headers (a write barrier preserves retained views — see
// view.go). Analyze keeps the original detached-copy semantics; Refresh
// converges without publishing anything.
//
// Snapshots are O(1) tokens backed by undo journals: between Snapshot
// and Restore the arena records (slot, old value) for every jitter
// write, the header journal records every result-header mutation, and
// Restore replays both backwards — cost proportional to the writes since
// the snapshot, never to the total state. Snapshots survive RemoveFlow:
// a departure under an armed journal tombstones the departed flow's
// arena block in place (no compaction, so journaled offsets stay valid)
// and logs the removed spec, letting Restore re-insert the flow and
// re-link the block — the rollback-across-departure speculative batch
// admission needs.
//
// Mutate the flow set only through AddFlow/RemoveFlow so the engine can
// track what changed; after any out-of-band change to the network or its
// flows, call Invalidate. An Engine is not safe for concurrent use.
type Engine struct {
	an *Analyzer

	js    *jitterState // last converged jitter assignment when valid
	flows []FlowResult // live per-flow result headers, aligned with network indices
	meta  []hdrMeta    // per-header generation stamp + cached verdict flags
	valid bool         // js and flows describe a fixpoint of the current flow set
	// descending reports that dirty holds a pending warm descent: the
	// link-neighbours of flows that departed from a converged fixpoint of
	// acyclic pipelines. Their inputs shrank but their own jitters did
	// not move, so they seed the worklist without their interferers, and
	// AddFlow converges them before it adds (descend before ascend).
	// Snapshot state, like dirty.
	descending bool
	dirty      map[int]bool // flows changed since the last converged analysis

	// gen is the header-write generation: bumped once per mutating entry
	// point, stamped onto every header written under it. Views order
	// themselves against header writes with it (view.go).
	gen uint64
	// unsched / errcnt count the headers that are currently not
	// schedulable / carry a stage error, so views answer Schedulable()
	// and the holistic-cap probe in O(1).
	unsched int
	errcnt  int
	// views are the live ResultViews, ascending by creation generation;
	// the write barrier saves overwritten headers into the suffix that
	// can still see them.
	views []*ResultView

	// hdrJournal is the header undo log armed by Snapshot, mirroring the
	// jitter journal: Restore replays it backwards instead of restoring a
	// header copy.
	hdrJournal   []hdrOp
	hdrJournalOn bool

	// wlMark/wlEpoch/wlNext are the worklist iteration's reusable
	// next-front scratch: wlMark[f] == wlEpoch marks flow f as already
	// on the next round's worklist, wlNext accumulates the front in
	// visit order (sorted into work afterwards). Epoch stamping makes
	// the reset O(1) per round instead of allocating a fresh set.
	// Outside an analysis RemoveFlow borrows wlNext as its scratch.
	wlMark  []int64
	wlEpoch int64
	wlNext  []int

	// stats counts the sweeps of the last holistic analysis; noConv is
	// its abandonment record when MaxHolisticIter ran out (see
	// ConvergenceStats, ErrNoConvergence).
	stats  ConvergenceStats
	noConv *ErrNoConvergence

	// snapSeq increments on every Snapshot, Restore, Discard and
	// Invalidate: each snapshot truncates the undo journals, so only the
	// most recent snapshot is restorable, at most once.
	snapSeq uint64
	// snapLive reports whether the most recent snapshot is still
	// outstanding (neither restored, discarded, superseded nor
	// invalidated). While it is, RemoveFlow records departures in
	// removedLog so Restore can re-insert them.
	snapLive bool
	// removedLog holds the flows removed since the live snapshot, in
	// removal order; Restore replays it backwards through
	// Network.InsertFlowAt.
	removedLog []removedFlow
}

// removedFlow records one departure for rollback: the index the flow was
// removed from, its spec, and its cached per-rate demands.
type removedFlow struct {
	index  int
	fs     *network.FlowSpec
	demand []rateDemand
}

// NewEngine validates the network once and returns an engine over it.
// Unlike the per-request core.NewAnalyzer path, later AddFlow calls
// validate only the incoming flow against the already-validated network.
func NewEngine(nw *network.Network, cfg Config) (*Engine, error) {
	an, err := NewAnalyzer(nw, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{an: an, dirty: make(map[int]bool)}, nil
}

// Network returns the underlying network.
func (e *Engine) Network() *network.Network { return e.an.nw }

// Invalidate discards all warm state; the next analysis runs cold. Call
// it after mutating the network or its flows outside AddFlow/RemoveFlow
// (e.g. reassigning priorities). Outstanding snapshots become
// unrestorable; outstanding views stay readable (their header storage is
// abandoned, not overwritten).
func (e *Engine) Invalidate() {
	e.bumpGen()
	e.js = nil
	e.flows = nil
	e.meta = nil
	e.unsched, e.errcnt = 0, 0
	e.valid = false
	e.dirty = make(map[int]bool)
	e.descending = false
	e.an.resetDemands()
	e.snapSeq++ // outstanding snapshots become stale
	e.snapLive = false
	e.removedLog = nil
	e.hdrJournal = nil
	e.hdrJournalOn = false
}

// AddFlow validates the flow against the topology, registers it and marks
// it for (re-)analysis. Only the incoming flow is validated; the rest of
// the network was validated at construction. A pending warm descent left
// by RemoveFlow is converged first: its jitters still sit above the
// fixpoint, and adding a newcomer's demand on top of them could overshoot
// into a spurious DivergenceError that an ascent from below never meets.
func (e *Engine) AddFlow(fs *network.FlowSpec) (int, error) {
	if e.descending {
		e.converge()
	}
	i, err := e.an.nw.AddFlow(fs)
	if err != nil {
		return 0, err
	}
	e.bumpGen()
	if e.valid {
		e.js.addFlow(i, fs, e.an.nw.FlowResources(i))
		e.appendHeader(FlowResult{Index: i, Name: fs.Flow.Name}, true)
	}
	e.dirty[i] = true
	return i, nil
}

// RemoveFlow removes the i-th flow (a departure). Flows above i shift
// down by one index, mirroring Network.RemoveFlow. A departure only
// shrinks the interference sums of the flows sharing a directed link
// with it, so the converged jitters are still an upper bound on the new
// fixpoint; what happens next depends on the resource graph
// (Network.PipelinesAcyclic):
//
//   - Acyclic pipelines have a unique fixpoint. Only the departed flow's
//     link-neighbours are marked dirty and every other warm jitter is
//     kept; the next analysis descends from the old fixpoint, and since
//     the per-stage recurrences restart from their cold seed on every
//     pass, uniqueness makes the descent land exactly on the cold
//     analysis' answer.
//   - Cyclic pipelines may have several fixpoints, and a descent could
//     stop at a non-least one and over-reject later admissions. There
//     the flows that shared resources with the departed one —
//     transitively — are reset to the cold-start jitter assignment and
//     re-ascend.
//
// A warm descent needs a converged starting point, so a departure while
// additions are still pending takes the cold-reset path too. A live
// snapshot survives the removal: the departure is logged (and the arena
// block tombstoned rather than compacted), so Restore can roll back
// across it.
func (e *Engine) RemoveFlow(i int) error {
	nw := e.an.nw
	if i < 0 || i >= nw.NumFlows() {
		return errIndex(i, nw.NumFlows())
	}
	e.bumpGen()
	if e.snapLive {
		rec := removedFlow{index: i, fs: nw.Flow(i)}
		if i < len(e.an.demands) {
			rec.demand = e.an.demands[i]
		}
		e.removedLog = append(e.removedLog, rec)
	}
	if !e.valid {
		nw.RemoveFlow(i)
		e.an.removeFlowDemand(i)
		e.dirty = make(map[int]bool) // indices shifted; cold pass re-covers all
		e.descending = false
		return nil
	}
	// Collect the departing flow's neighbours and the pending set in one
	// scratch slice before the removal renumbers them.
	buf := e.wlNext[:0]
	nw.VisitInterferers(i, func(j int) { buf = append(buf, j) })
	nn := len(buf)
	for j := range e.dirty {
		if j != i {
			buf = append(buf, j)
		}
	}
	warm := len(e.dirty) == 0 || e.descending
	nw.RemoveFlow(i)
	e.an.removeFlowDemand(i)
	e.js.removeFlow(i)
	e.spliceHeader(i, true)
	for k, j := range buf {
		if j > i {
			buf[k] = j - 1
		}
	}
	clear(e.dirty)
	for _, j := range buf[nn:] {
		e.dirty[j] = true
	}
	nbrs := buf[:nn]
	if warm && nw.PipelinesAcyclic() {
		for _, j := range nbrs {
			e.dirty[j] = true
		}
		// A departure that shared no link leaves nothing to descend.
		e.descending = len(e.dirty) > 0
	} else {
		for _, j := range e.affectedSet(nbrs) {
			e.js.coldReset(j, nw.Flow(j))
			e.dirty[j] = true
		}
		e.descending = false
	}
	e.wlNext = buf[:0]
	return nil
}

// converge brings the engine's warm state up to date: with no pending
// changes it is a no-op, with pending changes it runs the delta
// worklist over them, and without warm state it runs a full cold pass.
// It reports whether the current assignment is a converged fixpoint;
// it cannot fail — overload, divergence and cap exhaustion are verdicts
// carried on the result (the callers' error returns are API).
func (e *Engine) converge() bool {
	if !e.valid {
		return e.convergeFull()
	}
	if len(e.dirty) == 0 {
		return true
	}
	return e.convergeDelta()
}

// Analyze brings the engine's bounds up to date and returns them as a
// detached *Result: later engine calls do not mutate it. The detachment
// copies O(flows) headers per call — the compatibility path; hot callers
// should prefer AnalyzeView, whose copy-on-read views cost O(1) to
// create, or Refresh when the bounds need no reading at all.
func (e *Engine) Analyze() (*Result, error) {
	return e.result(e.converge()), nil
}

// AnalyzeView brings the engine's bounds up to date and returns an
// immutable copy-on-read view of them. Creating the view is O(1): it
// shares the engine's live headers, and the engine copies a header into
// the view only at the moment a later mutation overwrites it, so a
// retained view costs O(headers actually rewritten), never O(flows).
// Call ResultView.Materialize for Analyze's detached *Result, or
// ResultView.Close to discard a view early.
func (e *Engine) AnalyzeView() (*ResultView, error) {
	return e.newView(e.converge()), nil
}

// Refresh brings the engine's bounds up to date without publishing a
// result — the cheapest way to re-converge after a departure when the
// caller does not read the bounds.
func (e *Engine) Refresh() error {
	e.converge()
	return nil
}

// convergeDelta converges the flows whose pipelines transitively share a
// resource with the pending (dirty) flows — all of them, since a
// converged pass marks the whole engine state valid. It is decision- and
// bound-equivalent to a full cold analysis of the current network:
// unaffected flows' equations do not involve affected flows, and the
// affected subsystem is iterated to its fixpoint — monotonically up to
// the least one, or, for a warm descent, down to the unique one.
func (e *Engine) convergeDelta() bool {
	nw := e.an.nw
	// A changed flow alters the inputs of every flow sharing a directed
	// link with it (its demand now appears in their interference sums),
	// so those neighbours seed the worklist alongside the changed flows
	// themselves; the iteration then propagates only where jitters
	// actually move, never leaving the transitive interference closure —
	// and degenerating to a full (warm-started) pass when that closure is
	// the whole network. A pending descent's flows are already those
	// neighbours, so they seed alone.
	add := e.nextFrontStart(nw.NumFlows())
	for i := range e.dirty {
		add(i)
		if !e.descending {
			nw.VisitInterferers(i, add)
		}
	}
	work := append([]int(nil), e.wlNext...)
	sort.Ints(work)
	return e.analyzeOver(work)
}

// convergeFull runs the holistic analysis cold over every flow,
// rebuilding all warm state.
func (e *Engine) convergeFull() bool {
	nw := e.an.nw
	e.bumpGen()
	e.js = newJitterState(nw)
	flows := make([]FlowResult, nw.NumFlows())
	for i := range flows {
		flows[i] = FlowResult{Index: i, Name: nw.Flow(i).Flow.Name}
	}
	e.replaceHeaders(flows, true)
	all := make([]int, nw.NumFlows())
	for i := range all {
		all[i] = i
	}
	return e.analyzeOver(all)
}

// analyzeOver runs a chaotic (worklist) iteration of the holistic
// operator: each round is one Gauss-Seidel sweep over the flows on the
// worklist, and the next round's worklist is the flows whose jitters
// changed plus every flow sharing a directed link with one of them — the
// only flows whose inputs moved. A flow whose interferers' jitters are all
// unchanged recomputes to its previous result, so skipping it is exact:
// the iteration converges to the same least fixpoint as a full sweep over
// every flow, while touching only the actual propagation front. Within a
// round, a flow whose every stage the memo serves is skipped too: its
// pass would write nothing new.
//
// Every header it rewrites goes through the engine's write barrier, so
// retained ResultViews keep their pre-analysis values and the cost per
// round is O(worked flows).
func (e *Engine) analyzeOver(work []int) bool {
	nw := e.an.nw
	e.bumpGen()
	e.noConv = nil
	sweeps := 0
	// finish publishes the stats; the warm state is a fixpoint of the
	// current flow set exactly when the iteration converged. A pending
	// descent is resolved either way: converged, or invalid so that the
	// next pass runs cold.
	finish := func(converged bool) bool {
		e.valid = converged
		e.descending = false
		e.stats = ConvergenceStats{Iterations: sweeps, WorklistRounds: sweeps}
		return converged
	}
	maxIter := e.an.cfg.MaxHolisticIter
	for sweeps < maxIter {
		sweeps++
		e.js.resetChanged()
		for _, i := range work {
			if e.js.settled(i) {
				continue // its pass would rewrite every slot and header byte-identically
			}
			fr := e.an.flowPass(i, e.js, true)
			e.setHeader(i, fr, true)
			if fr.Err != nil {
				// An overloaded or diverging stage dooms the whole
				// configuration.
				return finish(false)
			}
		}
		if len(e.js.changedList) == 0 {
			e.dirty = make(map[int]bool)
			return finish(true)
		}
		front := e.nextFrontStart(nw.NumFlows())
		for _, f := range e.js.changedList {
			front(f)
			nw.VisitInterferers(f, front)
		}
		work = append(work[:0], e.wlNext...)
		sort.Ints(work)
	}
	e.noConv = &ErrNoConvergence{
		Iterations: maxIter,
		Residual:   e.js.maxDelta,
		Pending:    len(e.js.changedList),
	}
	return finish(false)
}

// nextFrontStart begins a new next-worklist round — an O(1) epoch bump
// over the reusable membership scratch instead of a fresh set per round
// — and returns the add function: add(f) appends f to e.wlNext exactly
// once per round. The same function value feeds VisitInterferers, so a
// round allocates one closure instead of a map.
func (e *Engine) nextFrontStart(n int) func(int) {
	if len(e.wlMark) < n {
		e.wlMark = make([]int64, n)
		e.wlEpoch = 0
	}
	e.wlEpoch++
	e.wlNext = e.wlNext[:0]
	return func(f int) {
		if e.wlMark[f] != e.wlEpoch {
			e.wlMark[f] = e.wlEpoch
			e.wlNext = append(e.wlNext, f)
		}
	}
}

// result assembles a detached Result from the live per-flow headers —
// the O(flows) copy the view path exists to avoid.
func (e *Engine) result(converged bool) *Result {
	out := &Result{
		Flows:         make([]FlowResult, len(e.flows)),
		Iterations:    e.stats.Iterations,
		Converged:     converged,
		Stats:         e.stats,
		NoConvergence: e.noConv,
	}
	copy(out.Flows, e.flows)
	return out
}

// affectedSet returns the transitive closure of the seed flows under the
// "shares a directed link" relation, sorted ascending. Interference in
// every pipeline stage — first hop, in(N) ingress, prioritised egress —
// travels only between flows on a common directed link, so this closure
// is exactly the set of flows whose bounds can change. Cost is
// O(closure), not O(flows): membership lives in a closure-sized map and
// the result is collected during the walk, so a departure in a large
// network touches only its own interference neighbourhood. Only
// departures on cyclic pipelines need it (see RemoveFlow).
func (e *Engine) affectedSet(seed []int) []int {
	nw := e.an.nw
	visited := make(map[int]bool, 2*len(seed))
	queue := make([]int, 0, len(seed))
	out := make([]int, 0, len(seed))
	for _, i := range seed {
		if !visited[i] {
			visited[i] = true
			queue = append(queue, i)
			out = append(out, i)
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		fs := nw.Flow(i)
		for h := 0; h < len(fs.Route)-1; h++ {
			for _, j := range nw.FlowsOn(fs.Route[h], fs.Route[h+1]) {
				if !visited[j] {
					visited[j] = true
					queue = append(queue, j)
					out = append(out, j)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// Snapshot captures the engine's state for a later Restore as a cheap
// token: no jitter values and no result headers are copied. Taking it
// arms both undo journals — every subsequent jitter write and header
// mutation records its old value. The admission controller snapshots
// before every tentative admission and rolls back on rejection instead
// of re-analysing.
type Snapshot struct {
	jsRef *jitterState
	mark  jitterMark
	seq   uint64

	dirty      []int
	descending bool
	valid      bool
	stats      ConvergenceStats
	noConv     *ErrNoConvergence
	numFlows   int
}

// Snapshot captures the current engine state for a later Restore. Each
// call starts a fresh undo epoch: only the most recent snapshot can be
// restored, at most once (snapshot-once semantics). The snapshot spans
// AddFlow, RemoveFlow and analyses alike; only Invalidate kills it. Call
// Discard when the snapshot is known dead (the tentative change
// committed) to stop journaling and reclaim tombstoned arena blocks.
func (e *Engine) Snapshot() *Snapshot {
	e.snapSeq++
	e.snapLive = true
	e.removedLog = nil
	s := &Snapshot{
		seq:        e.snapSeq,
		valid:      e.valid,
		descending: e.descending,
		stats:      e.stats,
		noConv:     e.noConv,
		numFlows:   e.an.nw.NumFlows(),
		dirty:      make([]int, 0, len(e.dirty)),
	}
	for i := range e.dirty {
		s.dirty = append(s.dirty, i)
	}
	if e.js != nil {
		s.jsRef = e.js
		s.mark = e.js.beginJournal()
	}
	e.hdrJournal = e.hdrJournal[:0]
	e.hdrJournalOn = true
	return s
}

// Discard releases a snapshot without restoring it: the undo journals
// are disarmed, their memory reclaimed and arena blocks tombstoned by
// departures since the snapshot are compacted. Discarding a superseded
// or already consumed snapshot is a no-op. Commit paths should call it —
// otherwise the journals stay armed and grow with every write until the
// next Snapshot or Invalidate.
func (e *Engine) Discard(s *Snapshot) {
	if s == nil || s.seq != e.snapSeq {
		return
	}
	e.snapSeq++
	e.snapLive = false
	e.removedLog = nil
	e.hdrJournal = e.hdrJournal[:0]
	e.hdrJournalOn = false
	if s.jsRef != nil {
		s.jsRef.endJournal()
	}
	if e.js != nil && e.js != s.jsRef {
		// The jitter state was rebuilt (a cold pass) while the snapshot
		// was live; reclaim any tombstones the rebuilt state accumulated.
		e.js.endJournal()
	}
}

// Restore rolls the engine and its network back to the snapshot: flows
// added since it are popped, flows removed since it are re-inserted at
// their original indices (reverse removal order, via the engine's
// removal log and the jitter state's tombstone journal), and journaled
// jitter writes and header mutations are undone in reverse — O(changes
// since the snapshot), not O(total state). Views taken between Snapshot
// and Restore survive: the replay runs through the write barrier, so a
// retained view keeps showing the pre-restore analysis. Restoring a
// stale snapshot (a newer one was taken, it was discarded or already
// restored, or Invalidate ran) returns an error.
func (e *Engine) Restore(s *Snapshot) error {
	if s.seq != e.snapSeq {
		return fmt.Errorf("core: stale snapshot: only the most recent snapshot can be restored, once")
	}
	e.snapSeq++ // consume: a second restore of s is refused
	e.snapLive = false
	e.bumpGen()
	nw := e.an.nw
	// Re-insert departures in reverse removal order: afterwards every
	// flow alive at the snapshot is back at its original index and every
	// post-snapshot addition sits at the tail, so popping down to the
	// snapshot count restores the exact flow list.
	for r := len(e.removedLog) - 1; r >= 0; r-- {
		rec := e.removedLog[r]
		if err := nw.InsertFlowAt(rec.index, rec.fs); err != nil {
			return fmt.Errorf("core: restore could not re-insert removed flow %q: %w", rec.fs.Flow.Name, err)
		}
		e.an.insertDemandAt(rec.index, rec.demand)
	}
	e.removedLog = nil
	if nw.NumFlows() < s.numFlows {
		return fmt.Errorf("core: corrupt removal log (%d flows after replay, %d at snapshot)", nw.NumFlows(), s.numFlows)
	}
	for nw.NumFlows() > s.numFlows {
		nw.RemoveLastFlow()
	}
	if len(e.an.demands) > s.numFlows {
		e.an.demands = e.an.demands[:s.numFlows]
	}
	if s.jsRef != nil {
		s.jsRef.undoTo(s.mark)
	}
	e.js = s.jsRef
	e.undoHeaders()
	e.valid = s.valid
	e.stats = s.stats
	e.noConv = s.noConv
	e.dirty = make(map[int]bool, len(s.dirty))
	for _, i := range s.dirty {
		e.dirty[i] = true
	}
	e.descending = s.descending
	return nil
}
