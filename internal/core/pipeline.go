package core

import (
	"fmt"

	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// flowPass runs Figure 6 for one flow: it walks the route, analyses each
// stage with the current jitter state, accumulates RSUM/JSUM, and records
// the flow's new entry jitters for the next holistic iteration. With memo
// set (the engine's warm passes) a stage whose link group is unchanged
// since it was last computed is served from the jitter state's stage
// memo instead of being re-evaluated; the cold Analyzer passes false and
// evaluates every stage.
func (a *Analyzer) flowPass(i int, js *jitterState, memo bool) FlowResult {
	fs := a.nw.Flow(i)
	n := fs.Flow.N()
	route := fs.Route
	out := FlowResult{
		Index:  i,
		Name:   fs.Flow.Name,
		Frames: make([]FrameResult, n),
	}
	// All frames' stage records live in one arena, sub-sliced per frame
	// (capacity-clipped so an append on one frame's view can never bleed
	// into the next): the stage count per frame is fixed by the route, so
	// the whole pass costs two allocations instead of an append-grown
	// slice per frame. The arena escapes into the returned FlowResult,
	// which is what keeps the per-frame views alive.
	spf := 1 + 2*(len(route)-2)
	arena := make([]StageResult, 0, n*spf)
	for k := 0; k < n; k++ {
		// Figure 6, line 3: both sums start at the source jitter.
		rsum := fs.Flow.Frames[k].Jitter
		jsum := rsum
		base := len(arena)
		// First hop (lines 7-11), then in(N) and link(N, next) for each
		// intermediate switch (lines 13-19), in the pipeline layout
		// shared with network.FlowResources.
		for pos := 0; pos < spf; pos++ {
			js.set(i, pos, k, jsum)
			r, hit := units.Time(0), false
			if memo {
				r, hit = js.cached(i, pos, k)
			}
			if !hit {
				var err error
				if r, err = a.stage(i, k, pos, js); err != nil {
					out.Err = err
					return out
				}
				if memo {
					js.remember(i, pos, k, r)
				}
			}
			arena = append(arena, StageResult{Resource: stageResource(route, pos), Response: r, EntryJitter: jsum})
			rsum = units.SaturatingAdd(rsum, r)
			jsum = units.SaturatingAdd(jsum, r)
		}
		out.Frames[k] = FrameResult{
			Response: rsum,
			Deadline: fs.Flow.Frames[k].Deadline,
			Stages:   arena[base:len(arena):len(arena)],
		}
	}
	return out
}

// stage evaluates frame k of flow i at pipeline stage pos: 0 is the
// first hop, 2h-1 the ingress of route node h, 2h its egress.
func (a *Analyzer) stage(i, k, pos int, js *jitterState) (units.Time, error) {
	switch h := (pos + 1) / 2; {
	case pos == 0:
		return a.firstHop(i, k, js)
	case pos%2 == 1:
		return a.ingress(i, k, h, js)
	default:
		return a.egress(i, k, h, js)
	}
}

// stageResource returns the resource of pipeline stage pos on route, in
// the layout of stage.
func stageResource(route []network.NodeID, pos int) Resource {
	h := (pos + 1) / 2
	if pos%2 == 1 {
		return Resource{Kind: KindIngress, Node: route[h], To: route[h-1]}
	}
	return Resource{Kind: KindLink, Node: route[h], To: route[h+1]}
}

// Analyze runs the holistic analysis of Section 3.5: starting from source
// jitters only, it repeatedly recomputes every flow's pipeline under the
// current jitter assignment and feeds the resulting per-stage response
// times back as jitters, until the assignment is a fixpoint.
//
// A non-nil error is returned only for a structurally broken input; an
// unschedulable but well-formed network yields Result.Schedulable() ==
// false with per-flow diagnostics.
func (a *Analyzer) Analyze() (*Result, error) {
	if a.nw.NumFlows() == 0 {
		return &Result{Converged: true, Iterations: 0}, nil
	}
	js := newJitterState(a.nw)
	res := &Result{}
	for iter := 1; iter <= a.cfg.MaxHolisticIter; iter++ {
		js.resetChanged()
		flows := make([]FlowResult, a.nw.NumFlows())
		for i := range flows {
			flows[i] = a.flowPass(i, js, false)
			if flows[i].Err != nil {
				// An overloaded or diverging stage dooms the whole
				// configuration: report what we have.
				res.Flows = flows
				res.Iterations = iter
				res.Stats = ConvergenceStats{Iterations: iter, WorklistRounds: iter}
				res.Converged = false
				return res, nil
			}
		}
		res.Flows = flows
		res.Iterations = iter
		res.Stats = ConvergenceStats{Iterations: iter, WorklistRounds: iter}
		if !js.changed {
			res.Converged = true
			return res, nil
		}
	}
	res.Converged = false
	res.NoConvergence = &ErrNoConvergence{
		Iterations: a.cfg.MaxHolisticIter,
		Residual:   js.maxDelta,
		Pending:    len(js.changedList),
	}
	return res, nil
}

// AnalyzeFlow bounds a single flow's response times under a fixed jitter
// assignment in which every other flow contributes only its source jitter.
// It matches Figure 6 run once and is mainly useful for examples, tests
// and single-resource studies; Analyze is the complete holistic analysis.
func (a *Analyzer) AnalyzeFlow(i int) (FlowResult, error) {
	if i < 0 || i >= a.nw.NumFlows() {
		return FlowResult{}, errIndex(i, a.nw.NumFlows())
	}
	js := newJitterState(a.nw)
	fr := a.flowPass(i, js, false)
	return fr, nil
}

func errIndex(i, n int) error {
	return &indexError{i: i, n: n}
}

type indexError struct{ i, n int }

func (e *indexError) Error() string {
	return fmt.Sprintf("core: flow index %d out of range [0, %d)", e.i, e.n)
}
