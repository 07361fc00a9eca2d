// Package gmfnet is a schedulability-analysis toolkit for generalized
// multiframe (GMF) traffic on multihop networks of software-implemented
// Ethernet switches, reproducing:
//
//	Björn Andersson. "Schedulability Analysis of Generalized Multiframe
//	Traffic on Multihop-Networks Comprising Software-Implemented
//	Ethernet-Switches." IPPS/IPDPS 2008.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/gmf — the GMF traffic model and request-bound functions;
//   - internal/ether — UDP→Ethernet packetisation (eq. 1);
//   - internal/network — topology, routes, priorities, CIRC(N);
//   - internal/core — the response-time analysis and holistic fixpoint;
//   - internal/sim — a discrete-event simulator of the whole data path;
//   - internal/sporadic — the sporadic-collapse baseline;
//   - internal/admission — the admission controller of Section 3.5
//     (closure-sharded and incremental) and its cold referee;
//   - internal/trace — MPEG/VoIP/CBR/random workload generators.
//
// The layer map and the engine-state invariants are documented in
// docs/ARCHITECTURE.md; the scenario JSON and request-trace formats in
// docs/SCENARIOS.md.
//
// A minimal session:
//
//	topo := gmfnet.MustFigure1(gmfnet.Figure1Options{})
//	sys := gmfnet.NewSystem(topo)
//	sys.MustAddFlow(&gmfnet.FlowSpec{
//		Flow:     gmfnet.MPEGIBBPBBPBB("video", gmfnet.MPEGOptions{}),
//		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
//		Priority: 2,
//	})
//	res, err := sys.Analyze(gmfnet.AnalysisConfig{})
//	// res.Schedulable(), res.Flow(0).Frames[k].Response, ...
package gmfnet

import (
	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/prio"
	"gmfnet/internal/sensitivity"
	"gmfnet/internal/sim"
	"gmfnet/internal/sporadic"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// Re-exported model types. See the originating packages for full
// documentation.
type (
	// Time is a duration in picoseconds.
	Time = units.Time
	// BitRate is a link speed in bits per second.
	BitRate = units.BitRate
	// Flow is a generalized multiframe flow.
	Flow = gmf.Flow
	// Frame is one frame of a GMF flow.
	Frame = gmf.Frame
	// NodeID names a topology node.
	NodeID = network.NodeID
	// Topology is the node/link graph.
	Topology = network.Topology
	// SwitchParams holds software-switch costs.
	SwitchParams = network.SwitchParams
	// FlowSpec binds a flow to a route and priority.
	FlowSpec = network.FlowSpec
	// Priority is an 802.1p priority (larger = more important).
	Priority = network.Priority
	// Figure1Options configures the paper's example network.
	Figure1Options = network.Figure1Options
	// AnalysisConfig tunes the response-time analysis.
	AnalysisConfig = core.Config
	// ConvergenceStats counts the sweeps (worklist rounds) one analysis
	// took to reach the holistic fixpoint.
	ConvergenceStats = core.ConvergenceStats
	// ErrNoConvergence records an analysis abandoned at the holistic
	// iteration cap (AnalysisConfig.MaxHolisticIter) — found on
	// AnalysisResult.NoConvergence, never returned as an error.
	ErrNoConvergence = core.ErrNoConvergence
	// AnalysisResult is the holistic analysis outcome, detached from the
	// engine that produced it.
	AnalysisResult = core.Result
	// SimConfig tunes the discrete-event simulator.
	SimConfig = sim.Config
	// SimResult is the simulation outcome.
	SimResult = sim.Result
	// MPEGOptions configures the Figure 3 MPEG workload.
	MPEGOptions = trace.MPEGOptions
	// VoIPOptions configures the VoIP workload.
	VoIPOptions = trace.VoIPOptions
	// AdmissionDecision records one admission request outcome.
	AdmissionDecision = admission.Decision
	// Engine is the persistent, warm-startable analysis engine behind
	// incremental admission control.
	Engine = core.Engine
	// ShardedEngine partitions the analysis state by interference
	// closure, one warm engine per closure.
	ShardedEngine = core.ShardedEngine
	// ModelComparison pairs GMF and sporadic verdicts.
	ModelComparison = sporadic.Comparison
)

// Common duration and rate units.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
	Kbps        = units.Kbps
	Mbps        = units.Mbps
	Gbps        = units.Gbps
)

// Analysis modes (DESIGN.md F3-F5).
const (
	// ModeSound is the reconstruction whose bounds the simulator never
	// violates (default).
	ModeSound = core.ModeSound
	// ModePaper follows the equations exactly as printed.
	ModePaper = core.ModePaper
)

// NewTopology returns an empty topology.
func NewTopology() *Topology { return network.NewTopology() }

// DefaultSwitchParams returns the paper's Click measurements (CROUTE =
// 2.7 µs, CSEND = 1.0 µs, one processor).
func DefaultSwitchParams() SwitchParams { return network.DefaultSwitchParams() }

// Figure1 builds the paper's example network (Figure 1).
func Figure1(opt Figure1Options) (*Topology, error) { return network.Figure1(opt) }

// MustFigure1 is Figure1 that panics on error.
func MustFigure1(opt Figure1Options) *Topology { return network.MustFigure1(opt) }

// MPEGIBBPBBPBB builds the Figure 3 MPEG flow.
func MPEGIBBPBBPBB(name string, opt MPEGOptions) *Flow { return trace.MPEGIBBPBBPBB(name, opt) }

// VoIP builds a single-frame VoIP flow.
func VoIP(name string, opt VoIPOptions) *Flow { return trace.VoIP(name, opt) }

// CBRVideo builds a constant-bit-rate video flow.
func CBRVideo(name string, frameBytes int64, period, deadline Time) *Flow {
	return trace.CBRVideo(name, frameBytes, period, deadline)
}

// System bundles a topology with its flows and offers analysis,
// simulation, admission control and model comparison.
type System struct {
	nw *network.Network
}

// NewSystem creates a system over the topology.
func NewSystem(topo *Topology) *System {
	return &System{nw: network.New(topo)}
}

// Network exposes the underlying network for advanced use.
func (s *System) Network() *network.Network { return s.nw }

// AddFlow registers a flow and returns its index.
func (s *System) AddFlow(fs *FlowSpec) (int, error) { return s.nw.AddFlow(fs) }

// MustAddFlow registers a flow and panics on error; intended for examples
// and tests with statically known-good inputs.
func (s *System) MustAddFlow(fs *FlowSpec) int {
	i, err := s.nw.AddFlow(fs)
	if err != nil {
		panic(err)
	}
	return i
}

// AssignPrioritiesDM assigns deadline-monotonic priorities to all flows.
func (s *System) AssignPrioritiesDM() { s.nw.AssignPrioritiesDM() }

// Analyze runs the holistic schedulability analysis of the paper.
func (s *System) Analyze(cfg AnalysisConfig) (*AnalysisResult, error) {
	an, err := core.NewAnalyzer(s.nw, cfg)
	if err != nil {
		return nil, err
	}
	return an.Analyze()
}

// Simulate runs the discrete-event simulator on the system.
func (s *System) Simulate(cfg SimConfig) (*SimResult, error) {
	sm, err := sim.New(s.nw, cfg)
	if err != nil {
		return nil, err
	}
	return sm.Run()
}

// CompareModels analyses the system under both the GMF model and its
// sporadic collapse.
func (s *System) CompareModels(cfg AnalysisConfig) (*ModelComparison, error) {
	return sporadic.Compare(s.nw, cfg)
}

// NewAdmissionController returns the closure-sharded admission
// controller over the system's network; flows already present are
// treated as admitted and partitioned by interference closure. The
// network is validated once and only read: the controller owns the
// resident set — Residents().Flows() lists it in admission order (add
// them to a fresh System to analyse them cold), NumResidents counts
// it. Flows whose pipelines (transitively) share no resource never
// exchange jitter, so each closure gets its own warm Engine: a
// request re-analyses only the flows sharing resources with it, a
// rejection rolls back through O(1) undo-log snapshot tokens, a batch
// is decided closure by closure with one converged delta worklist
// each (identical decisions to one-by-one RequestAll), an arrival
// bridging two closures fuses their shards with a warm arena splice,
// departures are claimed in O(route length) and applied lazily in
// O(closure), and NumShards/Close re-split shards whose flows no
// longer form one closure. Decisions and bounds equal the cold
// referee's, pinned by differential tests.
func (s *System) NewAdmissionController(cfg AnalysisConfig) (*admission.ShardedController, error) {
	return admission.NewShardedController(s.nw, cfg)
}

// NewParallelAdmissionController returns the closure-sharded
// controller, exactly like NewAdmissionController. The name
// stays because the repository benchmark (bench/) calls it; a change to
// the benchmark renames it.
func (s *System) NewParallelAdmissionController(cfg AnalysisConfig) (*admission.ShardedController, error) {
	return admission.NewShardedController(s.nw, cfg)
}

// NewEngine returns a persistent, warm-startable analysis engine over the
// system's network. The engine keeps demand caches, the last converged
// jitter fixpoint (a flat arena indexed by dense resource ids) and the
// interference index across calls, so a stream of AddFlow/RemoveFlow +
// Analyze calls costs a fraction of repeated cold Analyze calls;
// snapshots are O(1) undo-log tokens whose window may add flows and
// remove the flows it added (RemoveFlow refuses an older flow while a
// snapshot is live), so Restore undoes only additions. Engine.Converge
// returns the verdict in O(1), read off counters the engine maintains
// over one status per flow; the engine keeps no bounds, and
// Engine.Analyze computes them as a detached AnalysisResult. Mutate the
// flow set only through the engine; after an out-of-band change build a
// new one.
func (s *System) NewEngine(cfg AnalysisConfig) (*Engine, error) {
	return core.NewEngine(s.nw, cfg)
}

// Breakdown is the result of a breakdown (critical-scaling) search.
type Breakdown = sensitivity.Breakdown

// BreakdownOptions tunes FindBreakdown.
type BreakdownOptions = sensitivity.Options

// FindBreakdown bisects for the largest payload scaling factor at which
// the system remains schedulable — the operator's headroom estimate.
func (s *System) FindBreakdown(opt BreakdownOptions) (*Breakdown, error) {
	return sensitivity.FindBreakdown(s.nw, opt)
}

// AssignPrioritiesOPA searches for a feasible priority assignment with
// Audsley's strategy and applies it; it returns whether one was found
// (original priorities are restored otherwise).
func (s *System) AssignPrioritiesOPA(cfg AnalysisConfig) (bool, error) {
	return prio.Assign(s.nw, cfg)
}

// ResourceLoad summarises the long-run demand on one resource.
type ResourceLoad = core.ResourceLoad

// UtilizationReport returns every resource's long-run utilisation, sorted
// descending — the bottleneck view.
func (s *System) UtilizationReport() ([]ResourceLoad, error) {
	return core.UtilizationReport(s.nw)
}
