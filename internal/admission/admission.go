// Package admission implements the admission controller sketched at the
// end of the paper's Section 3.5: a new flow is tentatively added to the
// network, the holistic analysis recomputes every bound, and the flow is
// admitted only when the whole network remains schedulable (existing
// guarantees included).
//
// ShardedController is the warm controller, the one the daemon, the
// load harness and the gmfnet facade run. It routes every request to
// its interference closure's private core.Engine (a shard of a
// core.ShardedEngine) and decides it there: an O(1) undo-log snapshot
// token before the tentative add, a delta analysis of only the flows
// that transitively share a resource with the newcomer, the verdict
// read off the engine's O(1) counters (core.Verdict), and on rejection
// a restore that undoes just the writes the tentative analysis made. A
// batch is decided closure by closure with one converged worklist per
// closure, eviction searches stay inside one closure, and departures
// are claimed in O(1) and applied lazily, each in O(closure).
//
// ColdController is the from-scratch referee: every request re-runs the
// full holistic fixpoint over the whole network. The differential tests
// in this package and the golden replay traces assert that both make
// identical decisions on the same request sequence.
package admission

import (
	"errors"
	"fmt"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
)

// Decision records the outcome of one admission request.
type Decision struct {
	// FlowName identifies the requested flow.
	FlowName string
	// Admitted reports whether the flow was accepted.
	Admitted bool
	// View is ShardedController's record of the decision: the engine's
	// verdict and, under RetainAll, the flow set it was computed over,
	// which Analysis re-analyses cold on demand. That flow set is the
	// request's shard (its interference closure) with the candidate, not
	// the whole network: flows outside it cannot be affected. Admitted
	// batch decisions share one record. ColdController leaves View nil
	// and fills Result; read decisions through Analysis to be
	// controller-agnostic.
	View *Record
	// Result is ColdController's detached analysis of the whole network.
	Result *core.Result
}

// Analysis returns the decision's full analysis: ColdController's
// Result, or a cold analysis of the flow set ShardedController recorded,
// computed on the first call and cached. The warm engine's bounds equal
// the cold analysis', so it explains the decision exactly. It returns
// nil for a zero Decision, for a decision made under RetainCounters and
// for one whose View was closed before it was ever analysed.
func (d Decision) Analysis() *core.Result {
	if d.Result != nil {
		return d.Result
	}
	if d.View != nil {
		return d.View.analysis()
	}
	return nil
}

// Record is what ShardedController keeps of one decision: the engine's
// verdict, the analysis configuration and topology and — under
// RetainAll only — the analysed flow set, in engine order.
type Record struct {
	// Verdict is the engine's verdict on the analysed flow set.
	Verdict core.Verdict

	cfg   core.Config
	topo  *network.Topology
	specs []*network.FlowSpec
	res   *core.Result
}

// record captures the verdict of eng's current flow set, plus extra
// specs the analysed set held beyond it; keep retains the flow set for
// Analysis.
func record(eng *core.Engine, v core.Verdict, keep bool, extra ...*network.FlowSpec) *Record {
	nw := eng.Network()
	r := &Record{Verdict: v, cfg: eng.Config(), topo: nw.Topo}
	if keep {
		r.specs = make([]*network.FlowSpec, 0, nw.NumFlows()+len(extra))
		r.specs = append(append(r.specs, nw.Flows()...), extra...)
	}
	return r
}

// Stats returns the convergence counters of the decision's analysis.
func (r *Record) Stats() core.ConvergenceStats { return r.Verdict.Stats }

// Close drops the retained flow set; an analysis already computed stays
// cached. Idempotent.
func (r *Record) Close() { r.specs = nil }

// analysis cold-analyses the retained flow set once and caches the
// result.
func (r *Record) analysis() *core.Result {
	if r.res != nil || r.specs == nil {
		return r.res
	}
	// Every spec was already staged in a shard engine over this topology,
	// so neither AddFlow nor NewAnalyzer can refuse it, and Analyze
	// errs only on structurally broken input.
	nw := network.New(r.topo)
	for _, fs := range r.specs {
		if _, err := nw.AddFlow(fs); err != nil {
			return nil
		}
	}
	an, err := core.NewAnalyzer(nw, r.cfg)
	if err != nil {
		return nil
	}
	r.res, _ = an.Analyze()
	return r.res
}

// decide admits or rejects one request on one engine: snapshot, stage
// the flow, converge the delta, and keep the flow only when every flow
// (old and new) stays schedulable — otherwise restore the snapshot. The
// snapshot is a token arming the engine's undo journals and the verdict
// is read off the engine's counters, so neither copies a result header.
// keep retains the analysed flow set in the decision's record. The
// error reports malformed requests (with nothing admitted); a sound
// rejection returns a Decision with Admitted == false and a nil error.
// ShardedController.Request applies it to the request's shard engine.
func decide(eng *core.Engine, fs *network.FlowSpec, keep bool) (Decision, error) {
	snap := eng.Snapshot()
	if _, err := eng.AddFlow(fs); err != nil {
		eng.Discard(snap) // nothing was admitted; disarm the journal
		return Decision{}, err
	}
	v := eng.Converge()
	d := Decision{FlowName: fs.Flow.Name, Admitted: v.Schedulable, View: record(eng, v, keep)}
	if !d.Admitted {
		if rerr := eng.Restore(snap); rerr != nil {
			return Decision{}, fmt.Errorf("admission: rollback failed: %v", rerr)
		}
	} else {
		// Committed: release the snapshot so the journals stop recording.
		eng.Discard(snap)
	}
	return d, nil
}

// decideBatch decides a batch on one engine with one converged analysis
// instead of one per request: every newcomer is staged, a single delta
// worklist seeded with all of them is converged once, and only when the
// combined set violates a deadline are newcomers evicted via journaled
// rollback — the departures of the eviction probes run under the
// batch's one snapshot, which survives them thanks to the engine's
// block-move journal.
//
// Decisions are exactly those of calling decide on each spec in order:
// a schedulable whole batch admits every request (the holistic
// interference is monotone, so every subset of a schedulable set is
// schedulable — one-by-one processing would have accepted each prefix
// too), and the eviction search reproduces the greedy prefix rule by
// bisecting for the longest schedulable prefix of the undecided suffix
// and rejecting the first flow beyond it, i.e. the most expensive
// violator in request order. Admitted decisions share the record of the
// batch's final analysis; a rejected decision records the prefix whose
// violation evicted it.
//
// On error the engine is back at its pre-batch flow set and no
// decision is returned.
//
// One verdict is not monotone in the flow set: an analysis that exhausts
// Config.MaxHolisticIter without converging (and without a stage error)
// depends on the warm-start point, so batch probes and one-by-one
// processing could disagree near the cap. When any batch analysis hits
// the cap, decideBatch therefore rolls back and replays the batch
// through decide one spec at a time, preserving decision equality by
// construction. Stage errors (overload, inner-fixpoint divergence) are
// monotone like deadline misses and stay on the fast path.
func decideBatch(eng *core.Engine, specs []*network.FlowSpec, keep bool) ([]Decision, error) {
	snap := eng.Snapshot()
	abort := func(err error) ([]Decision, error) {
		if rerr := eng.Restore(snap); rerr != nil {
			return nil, fmt.Errorf("admission: batch rollback failed: %v (after %w)", rerr, err)
		}
		return nil, err
	}
	fallback := func() ([]Decision, error) {
		if rerr := eng.Restore(snap); rerr != nil {
			return nil, fmt.Errorf("admission: batch fallback rollback failed: %v", rerr)
		}
		return decideEach(eng, specs, keep)
	}
	for _, fs := range specs {
		if _, err := eng.AddFlow(fs); err != nil {
			return abort(err)
		}
	}
	v := eng.Converge()
	if holisticCapHit(v) {
		return fallback()
	}
	admitted := make([]bool, len(specs))
	rejected := make([]*Record, len(specs))
	if v.Schedulable {
		for i := range admitted {
			admitted[i] = true
		}
	} else if err := evictBatch(eng, specs, v, admitted, rejected, keep); err != nil {
		if errors.Is(err, errHolisticCap) {
			return fallback()
		}
		return abort(err)
	}
	// Converge whatever survived; with no evictions this is the cached
	// batch fixpoint. The surviving set is schedulable by construction.
	final := eng.Converge()
	if holisticCapHit(final) {
		return fallback()
	}
	eng.Discard(snap)
	fin := record(eng, final, keep)
	out := make([]Decision, len(specs))
	for i, fs := range specs {
		out[i] = Decision{FlowName: fs.Flow.Name, Admitted: admitted[i], View: fin}
		if !admitted[i] {
			out[i].View = rejected[i]
		}
	}
	return out, nil
}

// decideEach is decideBatch's fallback: decide on every spec in order.
// On error it removes the flows the replay had admitted, so the engine
// is back at its pre-batch flow set, like every other decideBatch error.
func decideEach(eng *core.Engine, specs []*network.FlowSpec, keep bool) ([]Decision, error) {
	base := eng.Network().NumFlows()
	out := make([]Decision, len(specs))
	for i, fs := range specs {
		d, err := decide(eng, fs, keep)
		if err != nil {
			for n := eng.Network().NumFlows(); n > base; n-- {
				if rerr := eng.RemoveFlow(n - 1); rerr != nil {
					return nil, fmt.Errorf("admission: batch fallback rollback failed: %v (after %w)", rerr, err)
				}
			}
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// evictBatch is decideBatch's slow path: the engine holds every staged
// newcomer and the last analysis (lastFail) says the combined set is not
// schedulable. It decides each spec by repeatedly bisecting for the
// longest schedulable prefix of the undecided suffix — shrinking and
// re-growing the staged set through RemoveFlow/AddFlow probes under the
// batch snapshot — accepting that prefix, rejecting the flow beyond it,
// and re-staging the rest. Schedulability is monotone in the staged
// prefix (removing flows only removes interference), so the bisection is
// exact and the resulting accept set equals one-by-one processing.
// lastFail always belongs to the analysis of the accepted flows plus the
// staged prefix ending in the flow it rejects, so the rejected record is
// that flow set: the engine's flows once the prefix is cut back, plus
// the rejected spec. A returned error means the engine is in an
// intermediate state; the caller restores the batch snapshot (and, for
// errHolisticCap, replays the batch one by one — see decideBatch).
func evictBatch(eng *core.Engine, specs []*network.FlowSpec, lastFail core.Verdict, admitted []bool, rejected []*Record, keep bool) error {
	// rest holds the undecided spec indices, all currently staged after
	// the committed-and-accepted flows; base is the engine index of the
	// first staged one.
	base := eng.Network().NumFlows() - len(specs)
	rest := make([]int, len(specs))
	for i := range rest {
		rest[i] = i
	}
	for len(rest) > 0 {
		cur := len(rest) // staged prefix length of rest
		adjust := func(target int) error {
			for cur > target {
				if err := eng.RemoveFlow(base + cur - 1); err != nil {
					return err
				}
				cur--
			}
			for cur < target {
				if _, err := eng.AddFlow(specs[rest[cur]]); err != nil {
					return err
				}
				cur++
			}
			return nil
		}
		lo, hi := 0, len(rest)
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if err := adjust(mid); err != nil {
				return err
			}
			probe := eng.Converge()
			if holisticCapHit(probe) {
				return errHolisticCap
			}
			if probe.Schedulable {
				lo = mid
			} else {
				hi = mid
				lastFail = probe
			}
		}
		// rest[:hi-1] is the longest schedulable prefix: accepted.
		// rest[hi-1] broke it: rejected, with the analysis that shows the
		// violation.
		if err := adjust(hi - 1); err != nil {
			return err
		}
		for _, si := range rest[:hi-1] {
			admitted[si] = true
		}
		rejected[rest[hi-1]] = record(eng, lastFail, keep, specs[rest[hi-1]])
		base += hi - 1
		rest = rest[hi:]
		if len(rest) == 0 {
			break
		}
		// Re-stage the suffix beyond the rejected flow and converge once;
		// if everything now fits the batch is done, otherwise bisect again.
		for _, si := range rest {
			if _, err := eng.AddFlow(specs[si]); err != nil {
				return err
			}
		}
		again := eng.Converge()
		if holisticCapHit(again) {
			return errHolisticCap
		}
		if again.Schedulable {
			for _, si := range rest {
				admitted[si] = true
			}
			break
		}
		lastFail = again
	}
	return nil
}

// errHolisticCap signals that a batch analysis exhausted the holistic
// iteration cap: not an input error, but a verdict the batch path must
// not bisect on (see decideBatch).
var errHolisticCap = errors.New("admission: holistic iteration cap hit mid-batch")

// holisticCapHit reports whether the analysis stopped because the outer
// holistic iteration cap was exhausted: not converged, yet no stage
// reported an error. Deadline misses and stage errors are monotone in
// the flow set; this verdict is not (it depends on the warm-start
// point), so the batch path falls back to one-by-one processing on it.
func holisticCapHit(v core.Verdict) bool {
	return !v.Converged && v.StageErrors == 0
}

// ColdController is the from-scratch reference: every request re-builds a
// cold Analyzer and re-runs the full holistic fixpoint over every flow,
// and a rejection is rolled back by popping the tentative flow. It is the
// referee the warm ShardedController is differential-tested and
// benchmarked against.
type ColdController struct {
	nw  *network.Network
	cfg core.Config

	decisions []Decision
}

// NewColdController returns the from-scratch baseline controller.
func NewColdController(nw *network.Network, cfg core.Config) (*ColdController, error) {
	if nw == nil {
		return nil, fmt.Errorf("admission: nil network")
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return &ColdController{nw: nw, cfg: cfg}, nil
}

// Network returns the controlled network.
func (c *ColdController) Network() *network.Network { return c.nw }

// NumFlows returns the number of currently admitted flows.
func (c *ColdController) NumFlows() int { return c.nw.NumFlows() }

// Request tentatively adds the flow, analyses the whole network cold, and
// keeps the flow only when every flow stays schedulable.
func (c *ColdController) Request(fs *network.FlowSpec) (Decision, error) {
	if _, err := c.nw.AddFlow(fs); err != nil {
		return Decision{}, err
	}
	an, err := core.NewAnalyzer(c.nw, c.cfg)
	if err != nil {
		c.nw.RemoveLastFlow()
		return Decision{}, err
	}
	res, err := an.Analyze()
	if err != nil {
		c.nw.RemoveLastFlow()
		return Decision{}, err
	}
	d := Decision{
		FlowName: fs.Flow.Name,
		Admitted: res.Schedulable(),
		Result:   res,
	}
	if !d.Admitted {
		c.nw.RemoveLastFlow()
	}
	c.decisions = append(c.decisions, d)
	return d, nil
}

// Release removes the first flow with the given name.
func (c *ColdController) Release(name string) (bool, error) {
	for i := 0; i < c.nw.NumFlows(); i++ {
		if c.nw.Flow(i).Flow.Name == name {
			c.nw.RemoveFlow(i)
			return true, nil
		}
	}
	return false, nil
}

// Decisions returns all decisions in request order.
func (c *ColdController) Decisions() []Decision { return c.decisions }
