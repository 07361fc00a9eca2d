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
//     serves it instead: a flow whose every entry is current is passed
//     like any other, but the pass evaluates nothing and writes nothing
//     new. Restore voids the whole memo in O(1) by raising a floor, and
//     a block adopted from another engine starts with an empty memo.
//     The cold Analyzer keeps no memo, so it stays an independent
//     referee.
//
// The engine keeps a verdict, not bounds: one status per flow — its
// stage error, and whether a frame misses its deadline — and counters of
// the statuses that are not schedulable or carry a stage error, so
// Converge answers in O(1) (see verdict.go). Analyze computes the bounds
// on demand, in one pass over the converged jitter assignment.
//
// All of this per-flow state has one owner, the jitter state (see
// jitterState): each flow's entry holds its arena layout, its demands,
// its status and its worklist marks, so adding, removing, undoing or
// adopting a flow moves one entry. The engine creates it once and keeps
// it for its whole life; a cold pass resets it in place.
//
// Snapshots are O(1) tokens backed by the jitter state's undo journals.
// A snapshot window — Snapshot until Restore or Discard — may add flows
// and may remove flows it added, as the admission test's tentative
// additions and batch eviction probes do, but RemoveFlow refuses a flow
// older than the snapshot. So the state that existed at the snapshot
// never moves: the journals record (slot, old value) only for writes to
// it, and Restore replays them backwards and truncates whatever the
// window appended — cost proportional to the writes since the snapshot,
// never to the total state.
//
// Mutate the flow set only through AddFlow/RemoveFlow so the engine can
// track what changed: it does not see an out-of-band change to the
// network or its flows (reassigned priorities, say, or a link added to
// the topology, which raises CIRC of its switch), so build a new Engine
// after one. An Engine is not safe for concurrent use.
type Engine struct {
	an *Analyzer

	// js holds every flow's jitters, demands, status and marks; its
	// dirty list holds the flows changed since the last convergence.
	js    *jitterState
	valid bool // js describes a fixpoint of the current flow set, dirty flows aside
	// descending reports that the dirty list holds a pending warm
	// descent: the link-neighbours of flows that departed from a
	// converged fixpoint of acyclic pipelines. Their inputs shrank but
	// their own jitters did not move, so they seed the worklist without
	// their interferers, and AddFlow converges them before it adds
	// (descend before ascend). Snapshot state, like the dirty list.
	descending bool

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

	// live is the outstanding snapshot, nil when none: each snapshot
	// truncates the undo journals, so only the most recent one is
	// restorable, at most once, and Restore and Discard end it.
	live *Snapshot
}

// NewEngine validates the network once and returns an engine over it.
// Unlike the per-request core.NewAnalyzer path, later AddFlow calls
// validate only the incoming flow against the already-validated network.
// An engine over no flows is a converged fixpoint from the start.
func NewEngine(nw *network.Network, cfg Config) (*Engine, error) {
	an, err := NewAnalyzer(nw, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{an: an, js: newJitterState(nw, true), valid: nw.NumFlows() == 0}, nil
}

// Network returns the underlying network.
func (e *Engine) Network() *network.Network { return e.an.nw }

// Config returns the analysis configuration, defaults filled in.
func (e *Engine) Config() Config { return e.an.cfg }

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
	e.js.addFlow(i, fs, e.an.nw.FlowResources(i))
	e.js.markDirty(i)
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
// additions are still pending takes the cold-reset path too. Under a
// live snapshot only a flow added since it may depart: removing an
// older one returns an error and changes nothing.
func (e *Engine) RemoveFlow(i int) error {
	nw := e.an.nw
	if i < 0 || i >= nw.NumFlows() {
		return errIndex(i, nw.NumFlows())
	}
	if e.live != nil && i < e.live.mark.numFlows {
		return fmt.Errorf("core: flow %d predates the live snapshot of %d flows; a snapshot window removes only flows it added", i, e.live.mark.numFlows)
	}
	js := e.js
	if !e.valid {
		nw.RemoveFlow(i)
		js.removeFlowReindex(i)
		e.descending = false // a cold pass re-covers all
		return nil
	}
	// Collect the departing flow's neighbours in the scratch slice before
	// the removal renumbers them.
	nbrs := e.wlNext[:0]
	nw.VisitInterferers(i, func(j int) { nbrs = append(nbrs, j) })
	warm := len(js.dirty) == 0 || e.descending
	nw.RemoveFlow(i)
	js.removeFlowReindex(i)
	for k, j := range nbrs {
		if j > i {
			nbrs[k] = j - 1
		}
	}
	if warm && nw.PipelinesAcyclic() {
		for _, j := range nbrs {
			js.markDirty(j)
		}
		// A departure that shared no link leaves nothing to descend.
		e.descending = len(js.dirty) > 0
	} else {
		for _, j := range e.affectedSet(nbrs) {
			js.coldReset(j, nw.Flow(j))
			js.markDirty(j)
		}
		e.descending = false
	}
	e.wlNext = nbrs[:0]
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
	if len(e.js.dirty) == 0 {
		return true
	}
	return e.convergeDelta()
}

// Analyze brings the engine up to date and returns its bounds as a
// detached *Result: later engine calls do not mutate it. The engine
// keeps no bounds, so on a converged engine Analyze computes them with
// one pass over the fixpoint, which rewrites no jitter and serves no
// stage from the memo: the result is the cold Analyzer's, bit for bit.
// On an unconverged engine each flow carries only its name and stage
// error, with no frames — the bounds of an abandoned iteration are not
// bounds. Callers that need only the verdict use Converge.
func (e *Engine) Analyze() (*Result, error) {
	converged := e.converge()
	nw := e.an.nw
	out := &Result{
		Flows:         make([]FlowResult, nw.NumFlows()),
		Iterations:    e.stats.Iterations,
		Converged:     converged,
		Stats:         e.stats,
		NoConvergence: e.noConv,
	}
	for i := range out.Flows {
		if converged {
			e.an.flowPass(i, e.js, &out.Flows[i])
		} else {
			out.Flows[i] = FlowResult{Index: i, Name: nw.Flow(i).Flow.Name, Err: e.js.blocks[i].st.err}
		}
	}
	return out, nil
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
	for _, i := range e.js.dirty {
		add(i)
		if !e.descending {
			nw.VisitInterferers(i, add)
		}
	}
	work := append([]int(nil), e.wlNext...)
	sort.Ints(work)
	return e.analyzeOver(work)
}

// convergeFull runs the holistic analysis cold over every flow. Every
// flow's jitters and status are reset in place first, through the
// journaled writers, so a live snapshot still restores the state before
// the pass, and the verdict counts only flows passed in this
// convergence.
func (e *Engine) convergeFull() bool {
	nw := e.an.nw
	all := make([]int, nw.NumFlows())
	for i := range all {
		all[i] = i
		e.js.coldReset(i, nw.Flow(i))
		e.js.setStatus(i, flowStatus{})
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
// every flow, while touching only the actual propagation front.
func (e *Engine) analyzeOver(work []int) bool {
	nw := e.an.nw
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
			st := e.an.flowPass(i, e.js, nil)
			e.js.setStatus(i, st)
			if st.err != nil {
				// An overloaded or diverging stage dooms the whole
				// configuration.
				return finish(false)
			}
		}
		if len(e.js.moved) == 0 {
			e.js.clearDirty()
			return finish(true)
		}
		front := e.nextFrontStart(nw.NumFlows())
		for _, f := range e.js.moved {
			front(f)
			nw.VisitInterferers(f, front)
		}
		work = append(work[:0], e.wlNext...)
		sort.Ints(work)
	}
	e.noConv = &ErrNoConvergence{
		Iterations: maxIter,
		Residual:   e.js.maxDelta,
		Pending:    len(e.js.moved),
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
		rids := nw.FlowResources(i)
		for h := 0; h < len(rids); h += 2 { // the flow's links
			for _, j := range nw.LinkFlows(rids[h]) {
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
// token: no jitter values and no statuses are copied. Taking it arms
// the jitter state's undo journals — every later write to a jitter slot
// or flow status that exists now records its old value. The admission
// controller snapshots before every tentative admission and rolls back
// on rejection instead of re-analysing.
type Snapshot struct {
	mark       jitterMark
	descending bool
	valid      bool
	stats      ConvergenceStats
	noConv     *ErrNoConvergence
}

// Snapshot captures the current engine state for a later Restore. Each
// call starts a fresh undo epoch: only the most recent snapshot can be
// restored, at most once (snapshot-once semantics). The window it opens
// spans AddFlow, analyses and RemoveFlow of the flows added in it. Call
// Discard when the snapshot is known dead (the tentative change
// committed) to stop journaling.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		mark:       e.js.beginJournal(),
		valid:      e.valid,
		descending: e.descending,
		stats:      e.stats,
		noConv:     e.noConv,
	}
	e.live = s
	return s
}

// Discard releases a snapshot without restoring it: the undo journals
// are disarmed and their memory reclaimed. Discarding a superseded or
// already consumed snapshot is a no-op. Commit paths should call it —
// otherwise the journals stay armed and grow with every write until the
// next Snapshot.
func (e *Engine) Discard(s *Snapshot) {
	if s == nil || s != e.live {
		return
	}
	e.live = nil
	e.js.endJournal()
}

// Restore rolls the engine and its network back to the snapshot: the
// flows added since it are popped — the window removed no older flow —
// and journaled jitter and status writes are undone in reverse,
// O(changes since the snapshot), not O(total state). Restoring a stale
// snapshot (a newer one was taken, or it was discarded or already
// restored) returns an error.
func (e *Engine) Restore(s *Snapshot) error {
	if s != e.live {
		return fmt.Errorf("core: stale snapshot: only the most recent snapshot can be restored, once")
	}
	e.live = nil
	nw := e.an.nw
	for nw.NumFlows() > s.mark.numFlows {
		nw.RemoveLastFlow()
	}
	e.js.undoTo(s.mark)
	e.valid = s.valid
	e.stats = s.stats
	e.noConv = s.noConv
	e.descending = s.descending
	return nil
}
