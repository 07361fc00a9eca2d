package core

import "slices"

// This file holds the engine's result path: one status per flow, the
// verdict of a convergence read off counters maintained per status
// write, and the status undo journal Restore replays.
//
// The engine keeps no bounds. A warm pass over a flow yields its
// flowStatus — the stage error, if any, and whether a frame misses its
// deadline — and the engine keeps one per flow, aligned with network
// indices. Every write goes through setStatus, which keeps two counters
// current — statuses that are not schedulable, and statuses that carry
// a stage error — so a verdict is O(1). A caller that needs the bounds
// themselves calls Analyze, which reads them off the converged jitter
// assignment in one pass, or re-analyses the flow set cold with an
// Analyzer: the two are identical.

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

// Converge brings the engine up to date and returns the verdict, read
// off the counters the engine maintains as it writes statuses.
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

// flowStatus is what the engine keeps of a flow's last pass: its stage
// error (overload or divergence), nil when every stage was bounded, and
// whether some frame's bound exceeds its deadline.
type flowStatus struct {
	err  error
	miss bool
}

// statusOp is one entry of the status undo journal (armed by Snapshot,
// replayed backwards by Restore): status slot i held old.
type statusOp struct {
	i   int
	old flowStatus
}

// count adds d to the verdict counters for one status.
func (e *Engine) count(st flowStatus, d int) {
	if st.err != nil || st.miss {
		e.unsched += d
	}
	if st.err != nil {
		e.errcnt += d
	}
}

// setStatus overwrites status slot i, journaling the old value when the
// slot predates the live snapshot and maintaining the verdict counters.
func (e *Engine) setStatus(i int, st flowStatus) {
	if e.live != nil && i < e.live.numFlows {
		e.stJournal = append(e.stJournal, statusOp{i: i, old: e.status[i]})
	}
	e.count(e.status[i], -1)
	e.count(st, 1)
	e.status[i] = st
}

// spliceStatus removes status slot i, shifting the tail down. Under a
// live snapshot flow i was added in the window, so no slot that moves
// predates it and nothing is journaled.
func (e *Engine) spliceStatus(i int) {
	e.count(e.status[i], -1)
	e.status = slices.Delete(e.status, i, i+1)
}

// undoStatus puts back the statuses of snapshot s: the journaled writes
// replayed backwards, the slots the window appended truncated. The
// result is the snapshot's statuses bit for bit, so its verdict counters
// are the snapshot's.
func (e *Engine) undoStatus(s *Snapshot) {
	for k := len(e.stJournal) - 1; k >= 0; k-- {
		op := &e.stJournal[k]
		e.status[op.i] = op.old
	}
	e.stJournal = e.stJournal[:0]
	clear(e.status[s.numFlows:])
	e.status = e.status[:s.numFlows]
	e.unsched, e.errcnt = s.unsched, s.errcnt
}
