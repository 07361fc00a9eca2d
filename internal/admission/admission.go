// Package admission implements the admission controller sketched at the
// end of the paper's Section 3.5: a new flow is tentatively added to the
// network, the holistic analysis recomputes every bound, and the flow is
// admitted only when the whole network remains schedulable (existing
// guarantees included).
//
// Controller runs on the incremental core.Engine: it validates the
// network once, takes an O(1) undo-log snapshot token before every
// tentative admission, re-analyses only the flows that transitively share
// a resource with the newcomer, reads the verdict off an O(1)
// copy-on-read core.ResultView (no per-flow result headers are copied
// anywhere on the accept path), and on rejection restores the token —
// undoing just the jitter and header writes the tentative analysis
// made, never copying or rebuilding the whole assignment. ColdController
// is the original from-scratch implementation, retained as the
// reference baseline for differential tests and benchmarks.
//
// ShardedController scales the same test out by interference closure:
// requests are decided inside their closure's private shard engine
// (core.ShardedEngine), batches spanning disjoint closures are decided
// concurrently, eviction searches stay inside one closure instead of
// bisecting the whole batch, and departures are claimed in O(1) and
// applied lazily, each in O(closure). It is the controller the daemon
// and the load harness run. All three controllers produce identical
// decisions on the same request sequence; the differential tests in
// this package and the golden replay traces assert it.
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
	// View is the holistic analysis including the tentative flow, as a
	// copy-on-read core.ResultView frozen at decision time; for rejected
	// flows it explains the rejection. Controller and ColdController
	// analyse the whole network; ShardedController analyses the
	// request's interference closure only (flows outside it cannot be
	// affected, but their bounds are not in this view — read them via
	// Sharded().AnalyzeAllViews). Controller and ShardedController fill
	// View and leave Result nil; ColdController does the opposite (see
	// Result). Read decisions through Analysis to be
	// controller-agnostic.
	//
	// A live view pins a little engine bookkeeping, and the engine
	// copies each header the view saw into it at most once as later
	// requests overwrite them — in total never more than the eager
	// per-decision Result copy this replaced, but it does accrue with
	// the decision log. High-volume services that do not revisit old
	// analyses should release them (View.Close, or View.Materialize to
	// keep a detached copy, or ShardedController's RetainCounters);
	// admitted batch decisions share one view, for which Close is
	// idempotent.
	View *core.ResultView
	// Result is the detached form of the analysis, filled by
	// ColdController, which has no engine to share headers with. Under
	// ShardedController's RetainCounters both fields are nil. The
	// engine-backed controllers publish View instead, so their accept
	// path copies no per-flow result headers.
	Result *core.Result
}

// Analysis returns the decision's full detached analysis, materializing
// the view on first use (O(flows) once, cached). It returns nil for a
// zero Decision, and for a decision whose View was Closed before ever
// materializing — the caller declared the analysis dead then.
func (d Decision) Analysis() *core.Result {
	if d.Result != nil {
		return d.Result
	}
	if d.View != nil {
		return d.View.Materialize()
	}
	return nil
}

// Controller owns a network and admits or rejects flows against it,
// re-analysing incrementally between requests.
type Controller struct {
	eng *core.Engine

	decisions []Decision
	released  int
}

// NewController returns a controller over the network; flows already in
// the network are treated as admitted (they are not re-checked). The
// network is validated once here; each later request validates only its
// own flow.
func NewController(nw *network.Network, cfg core.Config) (*Controller, error) {
	if nw == nil {
		return nil, fmt.Errorf("admission: nil network")
	}
	eng, err := core.NewEngine(nw, cfg)
	if err != nil {
		return nil, err
	}
	return &Controller{eng: eng}, nil
}

// Network returns the controlled network with all currently admitted
// flows.
func (c *Controller) Network() *network.Network { return c.eng.Network() }

// Engine exposes the underlying incremental engine, e.g. to read the
// current bounds without issuing a request.
func (c *Controller) Engine() *core.Engine { return c.eng }

// NumFlows returns the number of currently admitted flows.
func (c *Controller) NumFlows() int { return c.eng.Network().NumFlows() }

// Request tentatively adds the flow, re-analyses the affected part of the
// network from the engine's warm state, and keeps the flow only when
// every flow (old and new) stays schedulable; on rejection the engine is
// rolled back to its pre-request snapshot. The whole accept path is
// O(affected): the snapshot is a cheap token arming the engine's undo
// journals (no header or jitter copies), the verdict is read off an O(1)
// copy-on-read view, and the decision retains that view — the engine's
// write barrier keeps it frozen as later requests overwrite the shared
// headers. The returned error reports malformed requests; a sound
// rejection returns a Decision with Admitted == false and a nil error.
func (c *Controller) Request(fs *network.FlowSpec) (Decision, error) {
	d, err := decide(c.eng, fs)
	if err != nil {
		return Decision{}, err
	}
	c.decisions = append(c.decisions, d)
	return d, nil
}

// decide runs Request's snapshot / delta analysis / rollback protocol
// on one engine without recording anything: the shared core of
// Controller.Request and ShardedController.Request, which applies it to
// the request's shard engine.
func decide(eng *core.Engine, fs *network.FlowSpec) (Decision, error) {
	snap := eng.Snapshot()
	if _, err := eng.AddFlow(fs); err != nil {
		eng.Discard(snap) // nothing was admitted; disarm the journal
		return Decision{}, err
	}
	v, err := eng.AnalyzeView()
	if err != nil {
		if rerr := eng.Restore(snap); rerr != nil {
			return Decision{}, fmt.Errorf("admission: rollback failed: %v (after %w)", rerr, err)
		}
		return Decision{}, err
	}
	d := Decision{
		FlowName: fs.Flow.Name,
		Admitted: v.Schedulable(),
		View:     v,
	}
	if !d.Admitted {
		// The rollback's undo writes pass through the write barrier, so
		// the retained view keeps showing the violating analysis.
		if rerr := eng.Restore(snap); rerr != nil {
			v.Close()
			return Decision{}, fmt.Errorf("admission: rollback failed: %v", rerr)
		}
	} else {
		// Committed: release the snapshot so the journals stop recording.
		eng.Discard(snap)
	}
	return d, nil
}

// RequestAll processes a batch of requests in order, stopping at the
// first malformed request. Decisions for the requests processed so far
// are returned alongside any error. Each request rides its own snapshot
// token, so a rejection mid-batch rolls back exactly that request and
// the batch continues from the last committed state.
func (c *Controller) RequestAll(specs []*network.FlowSpec) ([]Decision, error) {
	out := make([]Decision, 0, len(specs))
	for _, fs := range specs {
		d, err := c.Request(fs)
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
	return out, nil
}

// RequestBatch admits a batch of requests with one converged analysis
// instead of one per request: every newcomer is staged into the engine,
// a single delta worklist seeded with all of them is converged once, and
// only when the combined set violates a deadline does the controller
// fall back to evicting newcomers via journaled rollback — the
// departures of the eviction probes run under the batch's one snapshot,
// which survives them thanks to the engine's block-move journal.
//
// Decisions are exactly RequestAll's: a schedulable whole batch admits
// every request (the holistic interference is monotone, so every subset
// of a schedulable set is schedulable — one-by-one processing would have
// accepted each prefix too), and the eviction search reproduces the
// greedy prefix rule by bisecting for the longest schedulable prefix of
// the undecided suffix and rejecting the first flow beyond it, i.e. the
// most expensive violator in request order. Admitted decisions share the
// batch's final converged Result; a rejected decision carries the
// analysis of the prefix whose violation evicted it.
//
// A malformed spec aborts the whole batch: the engine is rolled back to
// its pre-batch state, no decisions are recorded, and the error is
// returned (unlike RequestAll, which commits the prefix before the bad
// request).
//
// One verdict is not monotone in the flow set: an analysis that exhausts
// Config.MaxHolisticIter without converging (and without a stage error)
// depends on the warm-start point, so batch probes and one-by-one
// processing could disagree near the cap. When any batch analysis hits
// the cap, RequestBatch therefore rolls back and replays the batch
// through the literal one-by-one path, preserving decision equality by
// construction. Stage errors (overload, inner-fixpoint divergence) are
// monotone like deadline misses and stay on the fast path.
func (c *Controller) RequestBatch(specs []*network.FlowSpec) ([]Decision, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	snap := c.eng.Snapshot()
	// opened tracks every view minted during the batch; the ones that do
	// not end up in a decision are closed before returning, on every
	// path, so discarded bisection probes do not stay pinned.
	var opened []*core.ResultView
	closeAll := func() {
		for _, v := range opened {
			v.Close()
		}
	}
	abort := func(err error) ([]Decision, error) {
		closeAll()
		if rerr := c.eng.Restore(snap); rerr != nil {
			return nil, fmt.Errorf("admission: batch rollback failed: %v (after %w)", rerr, err)
		}
		return nil, err
	}
	fallback := func() ([]Decision, error) {
		closeAll()
		if rerr := c.eng.Restore(snap); rerr != nil {
			return nil, fmt.Errorf("admission: batch fallback rollback failed: %v", rerr)
		}
		return c.RequestAll(specs)
	}
	for _, fs := range specs {
		if _, err := c.eng.AddFlow(fs); err != nil {
			return abort(err)
		}
	}
	v, err := c.eng.AnalyzeView()
	if err != nil {
		return abort(err)
	}
	opened = append(opened, v)
	if holisticCapHit(v) {
		return fallback()
	}
	admitted := make([]bool, len(specs))
	rejected := make([]*core.ResultView, len(specs))
	if v.Schedulable() {
		for i := range admitted {
			admitted[i] = true
		}
	} else if err := c.evictBatch(specs, v, admitted, rejected, &opened); err != nil {
		if errors.Is(err, errHolisticCap) {
			return fallback()
		}
		return abort(err)
	}
	// Converge whatever survived; with no evictions this is the cached
	// batch fixpoint. The surviving set is schedulable by construction.
	final, err := c.eng.AnalyzeView()
	if err != nil {
		return abort(err)
	}
	opened = append(opened, final)
	if holisticCapHit(final) {
		return fallback()
	}
	c.eng.Discard(snap)
	out := make([]Decision, len(specs))
	kept := map[*core.ResultView]bool{final: true}
	for i, fs := range specs {
		out[i] = Decision{FlowName: fs.Flow.Name, Admitted: admitted[i], View: final}
		if !admitted[i] {
			out[i].View = rejected[i]
			kept[rejected[i]] = true
		}
	}
	for _, w := range opened {
		if !kept[w] {
			w.Close()
		}
	}
	c.decisions = append(c.decisions, out...)
	return out, nil
}

// evictBatch is RequestBatch's slow path: the engine holds every staged
// newcomer and the last analysis (lastFail) says the combined set is not
// schedulable. It decides each spec by repeatedly bisecting for the
// longest schedulable prefix of the undecided suffix — shrinking and
// re-growing the staged set through RemoveFlow/AddFlow probes under the
// batch snapshot — accepting that prefix, rejecting the flow beyond it,
// and re-staging the rest. Schedulability is monotone in the staged
// prefix (removing flows only removes interference), so the bisection is
// exact and the resulting accept set equals one-by-one processing.
// Probe analyses are read off copy-on-read views; the write barrier
// keeps a failing probe's view intact through the later add/remove churn
// so it can serve as the rejected flow's diagnostic. Every minted view
// is appended to opened for the caller's cleanup. A returned error means
// the engine is in an intermediate state; the caller restores the batch
// snapshot (and, for errHolisticCap, replays the batch one by one — see
// RequestBatch).
func (c *Controller) evictBatch(specs []*network.FlowSpec, lastFail *core.ResultView, admitted []bool, rejected []*core.ResultView, opened *[]*core.ResultView) error {
	// rest holds the undecided spec indices, all currently staged after
	// the committed-and-accepted flows; base is the engine index of the
	// first staged one.
	base := c.eng.Network().NumFlows() - len(specs)
	rest := make([]int, len(specs))
	for i := range rest {
		rest[i] = i
	}
	for len(rest) > 0 {
		cur := len(rest) // staged prefix length of rest
		adjust := func(target int) error {
			for cur > target {
				if err := c.eng.RemoveFlow(base + cur - 1); err != nil {
					return err
				}
				cur--
			}
			for cur < target {
				if _, err := c.eng.AddFlow(specs[rest[cur]]); err != nil {
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
			probe, err := c.eng.AnalyzeView()
			if err != nil {
				return err
			}
			*opened = append(*opened, probe)
			if holisticCapHit(probe) {
				return errHolisticCap
			}
			if probe.Schedulable() {
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
		rejected[rest[hi-1]] = lastFail
		base += hi - 1
		rest = rest[hi:]
		if len(rest) == 0 {
			break
		}
		// Re-stage the suffix beyond the rejected flow and converge once;
		// if everything now fits the batch is done, otherwise bisect again.
		for _, si := range rest {
			if _, err := c.eng.AddFlow(specs[si]); err != nil {
				return err
			}
		}
		again, err := c.eng.AnalyzeView()
		if err != nil {
			return err
		}
		*opened = append(*opened, again)
		if holisticCapHit(again) {
			return errHolisticCap
		}
		if again.Schedulable() {
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
// not bisect on (see RequestBatch).
var errHolisticCap = errors.New("admission: holistic iteration cap hit mid-batch")

// holisticCapHit reports whether the analysis stopped because the outer
// holistic iteration cap was exhausted: not converged, yet no stage
// reported an error. Deadline misses and stage errors are monotone in
// the flow set; this verdict is not (it depends on the warm-start
// point), so the batch path falls back to one-by-one processing on it.
// O(1): the view carries the engine's maintained stage-error count.
func holisticCapHit(v *core.ResultView) bool {
	return !v.Converged() && v.StageErrors() == 0
}

// Release removes the first admitted flow with the given name (a
// departure) and re-analyses the flows that shared resources with it, so
// the published bounds stay current. It reports whether a flow was
// removed.
func (c *Controller) Release(name string) (bool, error) {
	nw := c.eng.Network()
	for i := 0; i < nw.NumFlows(); i++ {
		if nw.Flow(i).Flow.Name != name {
			continue
		}
		if err := c.eng.RemoveFlow(i); err != nil {
			return false, err
		}
		// Removing a flow can only shrink interference, so the remaining
		// set stays schedulable; the delta pass just refreshes bounds —
		// Refresh converges without publishing (or copying) a result.
		if err := c.eng.Refresh(); err != nil {
			return false, err
		}
		c.released++
		return true, nil
	}
	return false, nil
}

// Decisions returns all decisions in request order.
func (c *Controller) Decisions() []Decision { return c.decisions }

// Admitted returns the number of admitted flows among the processed
// requests.
func (c *Controller) Admitted() int {
	n := 0
	for _, d := range c.decisions {
		if d.Admitted {
			n++
		}
	}
	return n
}

// Rejected returns the number of rejected requests.
func (c *Controller) Rejected() int { return len(c.decisions) - c.Admitted() }

// Released returns the number of departures processed by Release.
func (c *Controller) Released() int { return c.released }

// ColdController is the from-scratch reference: every request re-builds a
// cold Analyzer and re-runs the full holistic fixpoint over every flow,
// and a rejection is rolled back by popping the tentative flow. It exists
// to differential-test and benchmark the incremental Controller against.
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
