package core

// This file holds the engine's result path: the verdict of a
// convergence, read off counters maintained per header write, and the
// header undo journal Restore replays.
//
// The engine keeps one live slice of per-flow result headers, aligned
// with network indices. Every write to it goes through the functions
// below, which keep two counters current — headers that are not
// schedulable, and headers that carry a stage error — so a verdict is
// O(1) and never copies a header. A caller that needs the bounds
// themselves calls Analyze for a detached *Result (O(flows) copy), or
// re-analyses the flow set cold with an Analyzer: the warm and cold
// bounds are identical.

// Verdict is the outcome of one convergence of the engine: a plain
// value, unaffected by later engine calls.
type Verdict struct {
	// Converged reports whether the jitter assignment reached a fixpoint
	// within Config.MaxHolisticIter.
	Converged bool
	// Schedulable is the admission verdict: the analysis converged and
	// every frame of every flow met its deadline.
	Schedulable bool
	// StageErrors counts the flows carrying a stage error (overload or
	// inner-fixpoint divergence). Zero with Converged false means the
	// outer holistic iteration cap was exhausted — the one verdict that
	// is not monotone in the flow set (see admission's decideBatch).
	StageErrors int
	// Stats carries the convergence counters of the analysis.
	Stats ConvergenceStats
	// NoConvergence is the abandonment record when the analysis
	// exhausted Config.MaxHolisticIter, nil otherwise.
	NoConvergence *ErrNoConvergence
}

// Converge brings the engine's bounds up to date and returns the
// verdict. It copies no result header: the verdict is read off the
// counters the engine maintains as it writes headers.
func (e *Engine) Converge() Verdict {
	converged := e.converge()
	return Verdict{
		Converged:     converged,
		Schedulable:   converged && e.unsched == 0,
		StageErrors:   e.errcnt,
		Stats:         e.stats,
		NoConvergence: e.noConv,
	}
}

// hdrOp is one entry of the header undo journal (armed by Snapshot,
// replayed backwards by Restore): rollback costs O(headers written
// since the snapshot), not a copy of every header.
type hdrOp struct {
	kind uint8
	i    int        // opWrite: the slot written
	old  FlowResult // opWrite, opPop: the value to put back
	// oldFlows is the abandoned slice of an opReplace, retained by
	// reference: it is never mutated after the replacement.
	oldFlows []FlowResult
}

const (
	opWrite   uint8 = iota // flows[i] was old
	opAppend               // flows grew by one; undo pops the tail
	opPop                  // the tail was popped; undo re-appends old
	opReplace              // the whole slice was swapped; undo restores oldFlows
)

// count adds d to the verdict counters for one header.
func (e *Engine) count(fr *FlowResult, d int) {
	if !fr.Schedulable() {
		e.unsched += d
	}
	if fr.Err != nil {
		e.errcnt += d
	}
}

// recount rebuilds the verdict counters from the live headers.
func (e *Engine) recount() {
	e.unsched, e.errcnt = 0, 0
	for i := range e.flows {
		e.count(&e.flows[i], 1)
	}
}

// setHeader overwrites header slot i, journaling the old value when a
// snapshot is armed and maintaining the verdict counters. journal is
// false only during Restore's replay.
func (e *Engine) setHeader(i int, fr FlowResult, journal bool) {
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{kind: opWrite, i: i, old: e.flows[i]})
	}
	e.count(&e.flows[i], -1)
	e.count(&fr, 1)
	e.flows[i] = fr
}

// appendHeader grows the header slice by one.
func (e *Engine) appendHeader(fr FlowResult, journal bool) {
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{kind: opAppend})
	}
	e.count(&fr, 1)
	e.flows = append(e.flows, fr)
}

// popHeader drops the tail header.
func (e *Engine) popHeader(journal bool) {
	s := len(e.flows) - 1
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{kind: opPop, old: e.flows[s]})
	}
	e.count(&e.flows[s], -1)
	e.flows = e.flows[:s]
}

// spliceHeader removes header slot i, shifting the tail down with
// per-slot writes (each shifted header's Index is rewritten in the same
// stroke) and popping the duplicate tail. Removing the last flow — the
// admission cycle's steady-state departure — costs one pop.
func (e *Engine) spliceHeader(i int, journal bool) {
	n := len(e.flows)
	for j := i; j < n-1; j++ {
		fr := e.flows[j+1]
		fr.Index = j
		e.setHeader(j, fr, journal)
	}
	e.popHeader(journal)
}

// replaceHeaders swaps in a freshly built header slice (a cold pass).
// The old slice is abandoned, not mutated, so under an armed journal
// its ref is retained for O(1) rollback.
func (e *Engine) replaceHeaders(flows []FlowResult, journal bool) {
	if journal && e.hdrJournalOn {
		e.hdrJournal = append(e.hdrJournal, hdrOp{kind: opReplace, oldFlows: e.flows})
	}
	e.flows = flows
	e.recount()
}

// undoHeaders replays the header journal backwards, restoring the header
// slice and the verdict counters bit-identically to their state at the
// last Snapshot.
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
			e.replaceHeaders(op.oldFlows, false)
		}
	}
	e.hdrJournal = e.hdrJournal[:0]
}
