package core

// This file holds the engine's result path: one status per flow, kept in
// the flow's entry of the jitter state, and the verdict of a convergence
// read off counters maintained per status write.
//
// The engine keeps no bounds. A warm pass over a flow yields its
// flowStatus — the stage error, if any, and whether a frame misses its
// deadline — and the jitter state keeps it in the flow's entry. Every
// write goes through setStatus, which journals it under a live snapshot
// beside the jitter writes and keeps two counters current — statuses
// that are not schedulable, and statuses that carry a stage error — so a
// verdict is O(1). A caller that needs the bounds themselves calls
// Analyze, which reads them off the converged jitter assignment in one
// pass, or re-analyses the flow set cold with an Analyzer: the two are
// identical.

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
// off the counters the jitter state maintains as it writes statuses.
func (e *Engine) Converge() Verdict {
	converged := e.converge()
	return Verdict{
		Converged:     converged,
		Schedulable:   converged && e.js.unsched == 0,
		StageErrors:   e.js.errcnt,
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
// replayed backwards by Restore): flow i's status was old.
type statusOp struct {
	i   int
	old flowStatus
}

// count adds d to the verdict counters for one status.
func (js *jitterState) count(st flowStatus, d int) {
	if st.err != nil || st.miss {
		js.unsched += d
	}
	if st.err != nil {
		js.errcnt += d
	}
}

// setStatus overwrites flow j's status, journaling the old value when
// the flow predates the live snapshot and maintaining the verdict
// counters.
func (js *jitterState) setStatus(j int, st flowStatus) {
	b := &js.blocks[j]
	if j < js.journalFlows {
		js.statusJournal = append(js.statusJournal, statusOp{i: j, old: b.st})
	}
	js.count(b.st, -1)
	js.count(st, 1)
	b.st = st
}
