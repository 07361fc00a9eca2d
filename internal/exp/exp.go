// Package exp implements the reproducible experiments E1-E13, indexed by
// All. Each experiment regenerates one of the paper's worked examples or
// claims as a report.Table; the tables are printed by
// cmd/gmfnet-experiments and exercised by the root benchmarks. Where the
// paper states a value, the table prints it beside the measured one.
package exp

import (
	"fmt"
	"sort"

	"gmfnet/internal/report"
)

// Experiment is one regenerable experiment.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title describes what is reproduced.
	Title string
	// Run produces the experiment's tables.
	Run func() ([]*report.Table, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Fig. 3/4 — MPEG flow parameters on link(0,4) at 10 Mbit/s", Run: E1LinkParameters},
		{ID: "E2", Title: "Section 3.3 — CIRC(N) and the 14.8 µs example", Run: E2CIRC},
		{ID: "E3", Title: "Fig. 1/2/6 — end-to-end bound of the MPEG flow with cross traffic", Run: E3EndToEnd},
		{ID: "E4", Title: "Section 3.5 — holistic iteration convergence", Run: E4Holistic},
		{ID: "E5", Title: "Soundness — analysis bound vs simulated worst case", Run: E5AnalysisVsSim},
		{ID: "E6", Title: "Motivation — GMF vs sporadic admission as load grows", Run: E6Admission},
		{ID: "E7", Title: "Multihop scaling — bound growth with route length", Run: E7Scaling},
		{ID: "E8", Title: "Conclusions — multiprocessor switch sizing (48 ports)", Run: E8SwitchSizing},
		{ID: "E9", Title: "Ablation — ModePaper vs ModeSound bounds against simulation", Run: E9Ablation},
		{ID: "E10", Title: "Extension — response-time distribution vs worst-case bound", Run: E10Distribution},
		{ID: "E11", Title: "Extension — breakdown load, bottlenecks and priority policies", Run: E11Breakdown},
		{ID: "E12", Title: "Baseline — paper analysis vs idealized EDF (GMF ref. [6]) on one link", Run: E12EDFGap},
		{ID: "E13", Title: "Extension — buffer sizing: queue high-water marks under adversarial load", Run: E13Buffers},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}
