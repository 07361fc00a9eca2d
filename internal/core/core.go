// Package core implements the paper's schedulability analysis: upper
// bounds on the end-to-end response time of generalized multiframe flows
// crossing a multihop network of software-implemented Ethernet switches.
//
// The analysis decomposes a flow's route into a pipeline of resources
// (Figure 6):
//
//   - the first hop, where any work-conserving queuing discipline may be
//     used by the source host (Section 3.2, eqs. 14-20);
//   - the ingress stage in(N) of every switch, where a per-input-interface
//     task serviced once every CIRC(N) moves Ethernet frames into priority
//     queues (Section 3.3, eqs. 21-27);
//   - the egress stage of every switch, a static-priority non-preemptive
//     output queue whose dequeuing task is also stride-scheduled
//     (Section 3.4, eqs. 28-35).
//
// Each stage's response time becomes additional generalized jitter for the
// next stage, and Analyze iterates the whole network to the holistic
// fixpoint of Section 3.5, yielding a schedulability verdict usable as an
// admission test.
//
// Three execution vehicles share those equations:
//
//   - Analyzer is the one-shot reference: a full cold fixpoint per call;
//   - Engine is the persistent online form: warm-started delta worklists
//     over an arena-backed jitter state with O(1) undo-journal snapshots
//     (Snapshot/Restore/Discard) that survive departures;
//   - ShardedEngine partitions the arena by interference closure, one
//     Engine per closure, with warm shard fusion and re-splitting; a
//     resource-to-shard route table finds a flow's closure for
//     placement and departure in O(closure).
//
// All three compute identical bounds — the repo's differential and fuzz
// tests pin that. The state layout and its invariants (arena blocks,
// undo journal, tombstones, snapshot-once semantics, closure lifecycle)
// are documented in docs/ARCHITECTURE.md and on jitterState in
// analyzer.go.
package core

import (
	"fmt"

	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// Mode selects between the formulas exactly as printed in the paper and
// the reconstruction this package argues is sound (see DESIGN.md F3-F5).
type Mode int

const (
	// ModeSound charges every Ethernet fragment of the analysed frame a
	// full CIRC(N) service slot at the ingress stage, and charges the
	// analysed flow's own stride delays at the egress stage. It is the
	// default because the simulator never violates its bounds.
	ModeSound Mode = iota
	// ModePaper follows the printed equations: the ingress completion
	// term is a single CIRC(N) (eq. 25) and the egress stage charges
	// stride delays only for interfering flows (eq. 31).
	ModePaper
)

// String returns "sound" or "paper".
func (m Mode) String() string {
	switch m {
	case ModeSound:
		return "sound"
	case ModePaper:
		return "paper"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config tunes the analysis.
type Config struct {
	// Mode selects the formula variant; the zero value is ModeSound.
	Mode Mode
	// MaxBusy caps every busy-period and backlog fixpoint; exceeding it
	// is reported as divergence. Zero selects 10 s.
	MaxBusy units.Time
	// MaxFixpointIter caps the iterations of each inner fixpoint. Zero
	// selects 1 << 20.
	MaxFixpointIter int
	// MaxHolisticIter caps the outer holistic jitter iteration of
	// Section 3.5. Zero selects 256.
	MaxHolisticIter int
}

func (c Config) withDefaults() Config {
	if c.MaxBusy == 0 {
		c.MaxBusy = 10 * units.Second
	}
	if c.MaxFixpointIter == 0 {
		c.MaxFixpointIter = 1 << 20
	}
	if c.MaxHolisticIter == 0 {
		c.MaxHolisticIter = 256
	}
	return c
}

// ConvergenceStats reports how the last holistic iteration converged.
// The engine fills it on every analysis. Every worklist round is one
// sweep of the monotone ascent, so the two counters are always equal;
// both stay because bench/ reads each (its contract surface).
type ConvergenceStats struct {
	// Iterations counts the sweeps of the monotone (Kleene) ascent,
	// bounded by Config.MaxHolisticIter. It equals Result.Iterations.
	Iterations int
	// WorklistRounds counts the worklist rounds executed.
	WorklistRounds int
}

// Add accumulates other into s; admission loops use it to aggregate
// per-decision stats.
func (s *ConvergenceStats) Add(other ConvergenceStats) {
	s.Iterations += other.Iterations
	s.WorklistRounds += other.WorklistRounds
}

// ErrNoConvergence reports that the holistic iteration exhausted
// Config.MaxHolisticIter with the jitter assignment still moving: the
// analysis gave up, it did not converge in exactly the cap. It is
// carried on Result.NoConvergence / ResultView.NoConvergence() — not
// returned from Analyze — because cap exhaustion is a verdict
// (unschedulable as far as we know), not a structural failure: the
// batched admission path relies on distinguishing it from stage errors
// (see Controller.RequestBatch).
type ErrNoConvergence struct {
	// Iterations is the cap that was exhausted.
	Iterations int
	// Residual is the largest jitter increase observed in the final
	// sweep — how far the assignment was still moving when abandoned.
	Residual units.Time
	// Pending is the number of flows whose jitters changed in the final
	// sweep.
	Pending int
}

func (e *ErrNoConvergence) Error() string {
	return fmt.Sprintf("core: holistic iteration abandoned after %d iterations (residual %v, %d flows still moving)",
		e.Iterations, e.Residual, e.Pending)
}

// ResourceKind distinguishes the two resource types of the pipeline.
type ResourceKind int

const (
	// KindLink is an output queue plus wire: either the first hop's
	// work-conserving queue or a switch's prioritised egress.
	KindLink ResourceKind = iota
	// KindIngress is the in(N) stage: the software path from an input
	// card's FIFO to the right priority queue.
	KindIngress
)

// Resource identifies one stage of a flow's pipeline.
type Resource struct {
	Kind ResourceKind
	// Node is the transmitting node for KindLink and the switch for
	// KindIngress.
	Node network.NodeID
	// To is the receiving node for KindLink and the predecessor node
	// (identifying the input interface) for KindIngress.
	To network.NodeID
}

// String renders the resource in the paper's notation, e.g. "link(4,6)" or
// "in(6)<-4".
func (r Resource) String() string {
	if r.Kind == KindIngress {
		return fmt.Sprintf("in(%s)<-%s", r.Node, r.To)
	}
	return fmt.Sprintf("link(%s,%s)", r.Node, r.To)
}

// OverloadError reports that eq. (20)/(35)-style utilisation tests failed:
// the long-run demand on a resource reaches or exceeds its capacity, so no
// response-time bound exists.
type OverloadError struct {
	Resource    Resource
	Utilization float64
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("core: resource %v overloaded (utilisation %.3f >= 1)", e.Resource, e.Utilization)
}

// DivergenceError reports that a busy-period or backlog iteration exceeded
// Config.MaxBusy or Config.MaxFixpointIter without converging.
type DivergenceError struct {
	Resource Resource
	Flow     string
	Frame    int
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: fixpoint for flow %q frame %d on %v diverged", e.Flow, e.Frame, e.Resource)
}

// StageResult is the response-time bound of one pipeline stage for one
// frame.
type StageResult struct {
	// Resource identifies the stage.
	Resource Resource
	// Response is R_i^k at this stage: from being queued at the stage to
	// leaving it (including propagation for link stages).
	Response units.Time
	// EntryJitter is GJ_i^k at this stage: the accumulated jitter with
	// which the frame's fragments arrive.
	EntryJitter units.Time
}

// FrameResult is the end-to-end bound for one frame of a flow.
type FrameResult struct {
	// Response is R_i^k: the end-to-end response-time bound, including
	// the source's generalized jitter (Figure 6, line 3).
	Response units.Time
	// Deadline is D_i^k.
	Deadline units.Time
	// Stages holds the per-resource decomposition in route order.
	Stages []StageResult
}

// Meets reports whether the bound is within the deadline.
func (fr *FrameResult) Meets() bool { return fr.Response <= fr.Deadline }

// FlowResult aggregates the per-frame bounds of one flow.
type FlowResult struct {
	// Index is the flow's index in the network's flow list.
	Index int
	// Name is the flow's name.
	Name string
	// Err is non-nil when a stage analysis failed (overload or
	// divergence); Frames is then incomplete.
	Err error
	// Frames holds one result per GMF frame.
	Frames []FrameResult
}

// Schedulable reports whether every frame's bound meets its deadline.
func (fr *FlowResult) Schedulable() bool {
	if fr.Err != nil {
		return false
	}
	for i := range fr.Frames {
		if !fr.Frames[i].Meets() {
			return false
		}
	}
	return true
}

// MaxResponse returns the largest per-frame bound, or zero when Err is set.
func (fr *FlowResult) MaxResponse() units.Time {
	var m units.Time
	for i := range fr.Frames {
		if fr.Frames[i].Response > m {
			m = fr.Frames[i].Response
		}
	}
	return m
}

// Result is the outcome of the holistic analysis.
type Result struct {
	// Flows holds one result per flow, in network order.
	Flows []FlowResult
	// Iterations is the number of holistic passes executed.
	Iterations int
	// Converged reports whether the jitter assignment reached a fixpoint
	// within Config.MaxHolisticIter.
	Converged bool
	// Stats carries the convergence counters. Stats.Iterations ==
	// Iterations.
	Stats ConvergenceStats
	// NoConvergence is non-nil when the analysis exhausted
	// Config.MaxHolisticIter without reaching a fixpoint; it carries
	// the residual the iteration was abandoned at. Converged is then
	// false and the usual verdict logic applies — the typed error just
	// distinguishes "gave up" from "converged and unschedulable".
	NoConvergence *ErrNoConvergence
}

// Schedulable reports the admission verdict: the analysis converged and
// every frame of every flow meets its deadline.
func (r *Result) Schedulable() bool {
	if !r.Converged {
		return false
	}
	for i := range r.Flows {
		if !r.Flows[i].Schedulable() {
			return false
		}
	}
	return true
}

// Flow returns the result for the flow with the given index. The index
// must be in [0, len(r.Flows)); a violation panics with a descriptive
// message (it is a programming error, exactly like indexing Flows
// directly). Callers handling untrusted indices — CLIs cross-indexing a
// result against another flow list — should use FlowByIndex instead.
func (r *Result) Flow(i int) *FlowResult {
	if i < 0 || i >= len(r.Flows) {
		panic(fmt.Sprintf("core: Result.Flow(%d) out of range: result covers %d flows", i, len(r.Flows)))
	}
	return &r.Flows[i]
}

// FlowByIndex returns the result for the flow with the given index, or a
// descriptive error when the index is out of range.
func (r *Result) FlowByIndex(i int) (*FlowResult, error) {
	if i < 0 || i >= len(r.Flows) {
		return nil, errIndex(i, len(r.Flows))
	}
	return &r.Flows[i], nil
}
