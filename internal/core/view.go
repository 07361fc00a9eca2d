package core

import (
	"fmt"
	"sort"
)

// This file implements the engine's copy-on-read result path.
//
// The old result path assembled a detached *Result on every Analyze by
// copying O(flows) FlowResult headers — at 1024+ resident flows the
// dominant per-request cost of admission control. The replacement keeps
// one live header slice inside the engine, stamps every header with the
// generation that last wrote it, and hands callers immutable ResultViews
// that *share* the live headers:
//
//   - creating a view is O(1): it captures the slice, the current
//     generation, and the precomputed schedulability counters;
//   - the engine runs a write barrier before every header it overwrites:
//     the old value is saved into the private overlay of exactly the
//     views that can still see it (views created since the header's last
//     write — a generation-sorted suffix of the live-view list), so a
//     retained view stays byte-stable while the engine moves on, at cost
//     O(headers actually overwritten), never O(flows);
//   - Materialize is the escape hatch back to today's detached *Result
//     semantics, and releases the view's pin.
//
// Invariant (header visibility). For every live view v and header slot i
// that v can address (same backing array, i < len(v.flows)):
// v.overlay[i] exists iff slot i was overwritten after v was created.
// The barrier maintains it: a write to slot i saves the old value into
// every live view with v.gen >= meta[i].gen before the slot changes, and
// restamps meta[i].gen with the current generation. Reads then need no
// generation check at all: overlay hit → saved value, miss → live slot.
//
// Structural changes (append, pop, whole-slice replacement) ride the
// same machinery: a splice is per-slot barriered writes plus a pop, a
// cold pass replaces the backing array wholesale (old array freezes, so
// views on it are immutably detached for free — identity is the array
// pointer, compared via arrID), and an in-place append into a slot an
// older, longer view still addresses is barriered explicitly.

// hdrMeta is the engine-side bookkeeping for one FlowResult header.
type hdrMeta struct {
	// gen is the engine generation that last wrote the header.
	gen uint64
	// sched / err cache FlowResult.Schedulable() and Err != nil so the
	// engine can maintain whole-network counters per write and views can
	// answer Schedulable() in O(1).
	sched bool
	err   bool
}

// hdrOp is one entry of the header undo journal (armed by Snapshot,
// replayed backwards by Restore). The journal replaces the snapshot's
// old O(flows) header copy: rollback costs O(headers written since the
// snapshot).
type hdrOp struct {
	kind    uint8
	i       int
	old     FlowResult
	oldMeta hdrMeta
	// opReplace payload: the abandoned slices are retained by reference
	// (they are never mutated after the replacement), not copied.
	oldFlows   []FlowResult
	oldAll     []hdrMeta
	oldUnsched int
	oldErr     int
}

const (
	opWrite   uint8 = iota // flows[i] was old
	opAppend               // flows grew by one at i; undo truncates
	opPop                  // flows[i] (the tail) was popped; undo re-appends old
	opReplace              // the whole slice was swapped; undo restores the refs
)

// arrID identifies a header slice's backing array: the address of its
// first allocated element. Two slices alias iff their arrIDs are equal;
// the engine compares a view's captured id against the live one to
// decide whether the view still shares engine storage. Views keep their
// slice alive, so an id is never reused while a view that captured it
// exists.
func arrID(s []FlowResult) *FlowResult {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// hdrFlags computes the cached per-header flags.
func hdrFlags(fr *FlowResult) (sched, hasErr bool) {
	return fr.Schedulable(), fr.Err != nil
}

// bumpGen starts a new header generation; every public mutating entry
// point calls it once, so a view's generation totally orders it against
// the header writes before and after it.
func (e *Engine) bumpGen() { e.gen++ }

// saveHeaderForViews runs the write barrier for slot i: the slot's
// current value is copied into every live view created at or after the
// slot's last write. Views older than that already hold their copy (the
// visibility invariant), so the generation-sorted live-view list is
// scanned only from the matching suffix — in steady state the handful of
// views minted since the slot last changed.
func (e *Engine) saveHeaderForViews(i int) {
	if len(e.views) == 0 {
		return
	}
	g := e.meta[i].gen
	id := arrID(e.flows)
	lo := sort.Search(len(e.views), func(k int) bool { return e.views[k].gen >= g })
	for _, v := range e.views[lo:] {
		v.save(i, id)
	}
}

// setHeader overwrites header slot i through the barrier, journaling the
// old value when a snapshot is armed and maintaining the schedulability
// counters. journal is false only during Restore's replay.
func (e *Engine) setHeader(i int, fr FlowResult, journal bool) {
	e.saveHeaderForViews(i)
	m := e.meta[i]
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{kind: opWrite, i: i, old: e.flows[i], oldMeta: m})
	}
	sched, hasErr := hdrFlags(&fr)
	if m.sched != sched {
		if sched {
			e.unsched--
		} else {
			e.unsched++
		}
	}
	if m.err != hasErr {
		if hasErr {
			e.errcnt++
		} else {
			e.errcnt--
		}
	}
	e.flows[i] = fr
	e.meta[i] = hdrMeta{gen: e.gen, sched: sched, err: hasErr}
}

// appendHeader grows the header slice by one. No barrier is needed: a
// reallocating append freezes the old array (views on it are immutably
// detached), and an in-place append reuses a slot that popHeader already
// saved into every view that could still see it.
func (e *Engine) appendHeader(fr FlowResult, journal bool) {
	s := len(e.flows)
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{kind: opAppend, i: s})
	}
	sched, hasErr := hdrFlags(&fr)
	if !sched {
		e.unsched++
	}
	if hasErr {
		e.errcnt++
	}
	e.flows = append(e.flows, fr)
	e.meta = append(e.meta, hdrMeta{gen: e.gen, sched: sched, err: hasErr})
}

// popHeader drops the tail header, first saving it into the views that
// still address the slot — a later in-place append may overwrite it, so
// this is the last moment the shared value is trustworthy for them.
func (e *Engine) popHeader(journal bool) {
	s := len(e.flows) - 1
	e.saveHeaderForViews(s)
	m := e.meta[s]
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{kind: opPop, i: s, old: e.flows[s], oldMeta: m})
	}
	if !m.sched {
		e.unsched--
	}
	if m.err {
		e.errcnt--
	}
	e.flows = e.flows[:s]
	e.meta = e.meta[:s]
}

// spliceHeader removes header slot i, shifting the tail down with
// barriered per-slot writes (each shifted header's Index is rewritten in
// the same stroke) and popping the duplicate tail. Removing the last
// flow — the admission cycle's steady-state departure — costs one pop.
func (e *Engine) spliceHeader(i int, journal bool) {
	n := len(e.flows)
	for j := i; j < n-1; j++ {
		fr := e.flows[j+1]
		fr.Index = j
		e.setHeader(j, fr, journal)
	}
	e.popHeader(journal)
}

// replaceHeaders swaps in a freshly built header slice (a cold pass, or
// the empty-network degenerate case). The old slices are abandoned, not
// mutated, so views on them are detached and byte-stable for free; under
// an armed journal the refs are retained for O(1) rollback.
func (e *Engine) replaceHeaders(flows []FlowResult, journal bool) {
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{
			kind: opReplace, oldFlows: e.flows, oldAll: e.meta,
			oldUnsched: e.unsched, oldErr: e.errcnt,
		})
	}
	e.flows = flows
	e.meta = make([]hdrMeta, len(flows))
	e.unsched, e.errcnt = 0, 0
	for i := range flows {
		sched, hasErr := hdrFlags(&flows[i])
		e.meta[i] = hdrMeta{gen: e.gen, sched: sched, err: hasErr}
		if !sched {
			e.unsched++
		}
		if hasErr {
			e.errcnt++
		}
	}
}

// undoHeaders replays the header journal backwards, restoring the header
// slice bit-identically to its state at the last Snapshot. Live views
// are barriered through every undo write, so a view taken between
// Snapshot and Restore keeps showing the pre-restore analysis.
func (e *Engine) undoHeaders() {
	e.hdrJournalOn = false
	for k := len(e.hdrJournal) - 1; k >= 0; k-- {
		op := &e.hdrJournal[k]
		switch op.kind {
		case opWrite:
			e.setHeader(op.i, op.old, false)
		case opAppend:
			e.popHeader(false)
		case opPop:
			e.appendHeader(op.old, false)
		case opReplace:
			// The current slices were built after the snapshot and are
			// abandoned here; views on them stay frozen.
			e.flows = op.oldFlows
			e.meta = op.oldAll
			e.unsched = op.oldUnsched
			e.errcnt = op.oldErr
		}
	}
	e.hdrJournal = e.hdrJournal[:0]
}

// newView mints a live view of the current headers and pins it on the
// engine. O(1): nothing is copied until the engine overwrites a header
// the view can see.
func (e *Engine) newView(converged bool) *ResultView {
	v := &ResultView{
		eng:        e,
		gen:        e.gen,
		arr:        arrID(e.flows),
		flows:      e.flows,
		iterations: e.stats.Iterations,
		stats:      e.stats,
		noConv:     e.noConv,
		converged:  converged,
		sched:      converged && e.unsched == 0,
		errs:       e.errcnt,
	}
	e.views = append(e.views, v)
	return v
}

// dropView unpins a view; the engine stops saving overwritten headers
// into it.
func (e *Engine) dropView(v *ResultView) {
	for k, w := range e.views {
		if w == v {
			e.views = append(e.views[:k], e.views[k+1:]...)
			return
		}
	}
}

// ResultView is an immutable, generation-stamped view of one analysis
// outcome. It is what AnalyzeView returns: creation is O(1) because
// unchanged headers are shared with the engine, and the engine's write
// barrier copies a header into the view's private overlay only at the
// moment a later mutation overwrites it — copy-on-read for callers that
// retain a view across later engine activity, at total cost O(headers
// the engine actually rewrote), never O(flows).
//
// A view logically freezes the analysis at its creation: every accessor
// keeps answering from that state no matter what the engine does next
// (additions, removals, re-analyses, snapshot rollbacks — pinned by
// FuzzResultView against a deep-clone oracle). A live view pins a small
// amount of engine bookkeeping; call Materialize to convert it into a
// detached *Result (today's semantics) or Close to discard it. Both
// release the pin; unreleased views cost memory proportional to the
// headers overwritten since their creation, not correctness.
//
// Accessors return FlowResult by value, but the header's Frames and
// Stages slices still alias the analysis's backing arrays — the same
// arrays the engine's live headers, sibling views and materialized
// Results reference. The engine never mutates those arrays in place
// (every flow pass allocates fresh ones), which is what makes sharing
// them sound; callers must extend the same courtesy and treat the
// returned bounds as read-only, exactly as with Result.Flows. Like the
// engine itself, a ResultView is not safe for concurrent use with
// engine mutations.
type ResultView struct {
	eng   *Engine
	gen   uint64
	arr   *FlowResult
	flows []FlowResult
	// overlay holds the headers overwritten since the view was created,
	// saved by the engine's write barrier; nil until the first save.
	overlay map[int]FlowResult

	iterations int
	stats      ConvergenceStats
	noConv     *ErrNoConvergence
	converged  bool
	sched      bool
	errs       int

	mat    *Result
	closed bool
}

// save is the barrier target: record slot i's current value if this view
// still shares the engine's backing array, can address the slot, and has
// not saved it already.
func (v *ResultView) save(i int, id *FlowResult) {
	if v.arr != id || i >= len(v.flows) {
		return
	}
	if v.overlay == nil {
		v.overlay = make(map[int]FlowResult)
	}
	if _, ok := v.overlay[i]; !ok {
		v.overlay[i] = v.flows[i]
	}
}

func (v *ResultView) read(i int) FlowResult {
	if v.mat != nil {
		return v.mat.Flows[i]
	}
	if v.closed {
		panic("core: read of a closed ResultView (Close was called without Materialize)")
	}
	if fr, ok := v.overlay[i]; ok {
		return fr
	}
	return v.flows[i]
}

// NumFlows returns the number of flows the analysis covered.
func (v *ResultView) NumFlows() int { return len(v.flows) }

// Iterations returns the number of holistic passes the analysis ran.
func (v *ResultView) Iterations() int { return v.iterations }

// Stats returns the convergence counters of the analysis at view time.
// O(1) and safe after Close — the stats are captured at view creation.
func (v *ResultView) Stats() ConvergenceStats { return v.stats }

// NoConvergence returns the abandonment record when the analysis
// exhausted Config.MaxHolisticIter without converging, nil otherwise.
// Like Stats it is captured at view creation and survives Close.
func (v *ResultView) NoConvergence() *ErrNoConvergence { return v.noConv }

// Converged reports whether the jitter assignment reached a fixpoint
// within Config.MaxHolisticIter.
func (v *ResultView) Converged() bool { return v.converged }

// Schedulable reports the admission verdict at view time: the analysis
// converged and every frame of every flow met its deadline. O(1) — the
// engine maintains the verdict incrementally as it writes headers.
func (v *ResultView) Schedulable() bool { return v.sched }

// StageErrors returns how many flows carried a stage error (overload or
// inner-fixpoint divergence) at view time. Zero with Converged() false
// means the outer holistic iteration cap was exhausted — the one verdict
// that is not monotone in the flow set (see admission's decideBatch).
func (v *ResultView) StageErrors() int { return v.errs }

// Flow returns the result of the i-th flow as a value snapshot. It
// panics with a descriptive message when i is out of range, mirroring
// Result.Flow; use FlowByIndex for an error-returning lookup.
func (v *ResultView) Flow(i int) FlowResult {
	if i < 0 || i >= len(v.flows) {
		panic(fmt.Sprintf("core: ResultView.Flow(%d) out of range: view covers %d flows", i, len(v.flows)))
	}
	return v.read(i)
}

// FlowByIndex returns the result of the i-th flow, or a descriptive
// error when i is out of range.
func (v *ResultView) FlowByIndex(i int) (FlowResult, error) {
	if i < 0 || i >= len(v.flows) {
		return FlowResult{}, errIndex(i, len(v.flows))
	}
	return v.read(i), nil
}

// Materialize converts the view into a detached *Result with exactly the
// semantics Engine.Analyze always had: later engine calls do not affect
// it. The first call copies the headers (O(flows)) and releases the
// view's pin on the engine; repeat calls return the cached Result. A
// view that was Closed before ever materializing has given its data up
// for good — Materialize then returns nil.
func (v *ResultView) Materialize() *Result {
	if v.mat == nil {
		if v.closed {
			return nil
		}
		out := &Result{
			Flows:         make([]FlowResult, len(v.flows)),
			Iterations:    v.iterations,
			Converged:     v.converged,
			Stats:         v.stats,
			NoConvergence: v.noConv,
		}
		for i := range out.Flows {
			out.Flows[i] = v.read(i)
		}
		v.release()
		v.mat = out
	}
	return v.mat
}

// Close releases the view without materializing it. Flow reads after
// Close panic and Materialize returns nil, unless Materialize was
// called first; Close after Materialize is a no-op (the cached Result
// keeps serving).
func (v *ResultView) Close() {
	v.release()
	if v.mat == nil {
		v.closed = true
	}
}

func (v *ResultView) release() {
	if v.eng != nil {
		v.eng.dropView(v)
		v.eng = nil
	}
}
