// Command gmfnet-admit replays the flows of a JSON scenario as a sequence
// of admission requests (Section 3.5's admission controller): each flow is
// tentatively added, the holistic analysis re-runs, and the flow is kept
// only if every admitted flow stays schedulable.
//
// Usage:
//
//	gmfnet-admit [-sporadic] [-example] [scenario.json]
//	gmfnet-admit -stream N [-seed S] [-depart P] [-switches K] [-hosts H] [-cold] [-shards] [-batch B] [-record FILE]
//	gmfnet-admit -trace FILE [-cold] [-shards] [-batch B]
//
// Every mode accepts -cpuprofile and -memprofile FILE to write pprof
// profiles of the run (`go tool pprof` reads them) — the way to see
// where admission time goes. The run decides on one goroutine, so CPU
// and heap cover all of it.
//
// With -sporadic every request is first collapsed to the sporadic model,
// reproducing the capacity loss the paper's GMF model avoids.
//
// With -stream the command switches to request-stream mode: it builds a
// multi-switch campus topology, then drives N randomized admission
// requests (VoIP and CBR video between random hosts) through the
// incremental engine-backed controller, mixing in departures with
// probability -depart after each request. It reports the decision mix and
// the end-to-end admission throughput; -cold runs the same stream through
// the from-scratch baseline controller for comparison, and -batch B
// admits requests in batches of B through Controller.RequestBatch (one converged worklist per batch, departures
// flush the pending batch first). -shards runs the closure-sharded
// controller instead: requests are decided inside their interference
// closure's private shard engine, a batch spanning disjoint closures is
// decided group by group, and decisions are provably identical to the
// monolithic controller. -record FILE writes the generated operation stream as a replayable
// JSON-lines trace.
//
// With -trace the command replays such a recorded trace
// deterministically and prints one decision line per operation —
// timing-free output, so the sequential, -shards, -cold and -batch
// runs of the same trace are byte-identical (RequestBatch decisions equal one-by-one
// decisions by construction). The trace format (internal/workload) is
// shared with gmfnet-load; a header may name any generated topology —
// campus, backbone, fronthaul or clos — not just the campus streams this
// command records.
//
// With -connect ADDR the trace is replayed against a running
// gmfnet-admitd daemon instead of an in-process controller: each
// operation travels the JSON-lines wire protocol and the decision log
// printed here is byte-identical to the local replay — the daemon
// integration gate in CI diffs exactly that. The controller variant is
// the daemon's to choose, so -connect rejects the local engine flags;
// -batch still applies (batches ride the wire as one "batch" op).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"gmfnet/internal/admission"
	"gmfnet/internal/admitd/client"
	"gmfnet/internal/config"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/profiling"
	"gmfnet/internal/report"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
	"gmfnet/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gmfnet-admit:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gmfnet-admit", flag.ContinueOnError)
	sporadic := fs.Bool("sporadic", false, "collapse each request to the sporadic model before admitting")
	example := fs.Bool("example", false, "replay the built-in Figure 1 scenario")
	stream := fs.Int("stream", 0, "request-stream mode: number of randomized admission requests")
	seed := fs.Int64("seed", 1, "stream mode: RNG seed")
	depart := fs.Float64("depart", 0.2, "stream mode: departure probability after each request")
	switches := fs.Int("switches", 8, "stream mode: number of edge switches")
	hosts := fs.Int("hosts", 4, "stream mode: hosts per switch")
	cold := fs.Bool("cold", false, "stream/trace mode: use the from-scratch baseline controller")
	shards := fs.Bool("shards", false, "stream/trace mode: use the closure-sharded controller")
	batch := fs.Int("batch", 0, "stream/trace mode: admit requests in batches of this size through RequestBatch")
	record := fs.String("record", "", "stream mode: record the operation stream as a replayable trace file")
	stats := fs.Bool("stats", false, "stream/trace mode: report aggregated convergence statistics")
	traceFile := fs.String("trace", "", "replay a recorded request trace deterministically")
	connect := fs.String("connect", "", "replay the trace against a running gmfnet-admitd (host:port or unix socket path)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch > 0 && *cold {
		return fmt.Errorf("-batch needs the incremental controller (drop -cold)")
	}
	if *shards && *cold {
		return fmt.Errorf("-shards and -cold are mutually exclusive")
	}
	if *connect != "" {
		if *traceFile == "" {
			return fmt.Errorf("-connect needs -trace")
		}
		if *cold || *shards || *stats {
			return fmt.Errorf("-connect replays through the daemon's controller; drop the local engine flags")
		}
		if *stream > 0 || *record != "" {
			return fmt.Errorf("-connect is a trace-replay mode; it cannot stream or record")
		}
	}

	prof, err := profiling.Start(*cpuprofile, *memprofile, "")
	if err != nil {
		return err
	}
	err = func() error {
		opts := runOpts{cold: *cold, shards: *shards, batch: *batch, stats: *stats}
		if *traceFile != "" {
			if *connect != "" {
				return runTraceConnect(os.Stdout, *traceFile, *connect, *batch)
			}
			return runTrace(os.Stdout, *traceFile, opts)
		}
		if *stream > 0 {
			return runStream(*stream, *seed, *depart, *switches, *hosts, opts, *record)
		}

		var scenario *config.Scenario
		switch {
		case *example:
			scenario = config.Figure1Scenario()
		case fs.NArg() == 1:
			var err error
			scenario, err = config.Load(fs.Arg(0))
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("need a scenario file, -example or -stream (see -h)")
		}

		full, err := scenario.Build()
		if err != nil {
			return err
		}
		// Rebuild an empty network on the same topology and replay the
		// flows as requests.
		empty := network.New(full.Topo)
		ctl, err := admission.NewController(empty, core.Config{})
		if err != nil {
			return err
		}

		t := report.NewTable("Admission decisions (in request order)", "flow", "frames", "admitted")
		for _, fspec := range full.Flows() {
			req := fspec
			if *sporadic {
				req = &network.FlowSpec{
					Flow:     fspec.Flow.Sporadic(),
					Route:    fspec.Route,
					Priority: fspec.Priority,
					RTP:      fspec.RTP,
				}
			}
			d, err := ctl.Request(req)
			if err != nil {
				return err
			}
			t.AddRowf(d.FlowName, req.Flow.N(), d.Admitted)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("\nadmitted %d of %d requests\n", ctl.Admitted(), len(ctl.Decisions()))
		return nil
	}()
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	return err
}

// requester is what stream mode needs from a controller; the
// incremental Controller, the sharded ShardedController and the
// from-scratch ColdController all satisfy it.
type requester interface {
	Request(fs *network.FlowSpec) (admission.Decision, error)
	Release(name string) (bool, error)
	NumFlows() int
}

// batchRequester is the batched admission entry point shared by the
// monolithic and the sharded controller.
type batchRequester interface {
	RequestBatch(specs []*network.FlowSpec) ([]admission.Decision, error)
}

// admitter funnels admission requests into a controller either one by
// one or — when size > 0 — in batches through RequestBatch, invoking
// report for every decision in request order. Callers must flush before
// a departure (so victims are always decided flows) and once more at
// end of stream. Live streaming and trace replay share this path, which
// is what keeps their decision orders — and therefore the golden replay
// output — identical across batch sizes.
type admitter struct {
	ctl      requester
	batchCtl batchRequester // used when size > 0
	size     int
	pending  []*network.FlowSpec
	report   func(admission.Decision)
}

func (a *admitter) request(fs *network.FlowSpec) error {
	if a.size <= 0 {
		d, err := a.ctl.Request(fs)
		if err != nil {
			return err
		}
		a.report(d)
		a.release(d)
		return nil
	}
	a.pending = append(a.pending, fs)
	if len(a.pending) >= a.size {
		return a.flush()
	}
	return nil
}

func (a *admitter) flush() error {
	if len(a.pending) == 0 {
		return nil
	}
	ds, err := a.batchCtl.RequestBatch(a.pending)
	if err != nil {
		return err
	}
	for _, d := range ds {
		a.report(d)
		a.release(d)
	}
	a.pending = a.pending[:0]
	return nil
}

// release closes the decision's analysis view once it has been
// reported: stream and trace mode only ever read the verdict, and a
// long stream would otherwise keep every per-decision view pinned on
// the engine. Close is idempotent, so the shared view of an admitted
// batch is fine to release once per decision.
func (a *admitter) release(d admission.Decision) {
	if d.View != nil {
		d.View.Close()
	}
}

// runStream drives a randomized online request/departure stream through
// an admission controller and reports throughput. batch > 0 admits
// requests in batches of that size through RequestBatch, flushing the
// pending batch before every departure so victims are always decided
// flows. record, when set, logs the executed operations as a replayable
// trace.
func runStream(n int, seed int64, depart float64, switches, hostsPer int, o runOpts, record string) error {
	if switches < 1 || hostsPer < 2 {
		return fmt.Errorf("stream mode needs at least 1 switch and 2 hosts per switch")
	}
	topo, hostIDs, err := network.Campus(switches, hostsPer)
	if err != nil {
		return err
	}
	ctl, batchCtl, shardCtl, err := buildController(topo, o)
	if err != nil {
		return err
	}
	var rec *workload.Recorder
	if record != "" {
		// An empty Kind means campus, so recorded streams keep the exact
		// header bytes of the pre-generator trace format.
		h := workload.Header{Topo: workload.TopoSpec{Switches: switches, Hosts: hostsPer}}
		rec, err = workload.NewRecorder(record, h)
		if err != nil {
			return err
		}
		defer rec.Close() // error-path cleanup; the success path closes below
	}

	r := rand.New(rand.NewSource(seed))
	var admitted, rejected, released int
	var conv core.ConvergenceStats
	var liveNames []string
	adm := &admitter{ctl: ctl, batchCtl: batchCtl, size: o.batch, report: func(d admission.Decision) {
		conv.Add(decisionStats(d))
		if d.Admitted {
			admitted++
			liveNames = append(liveNames, d.FlowName)
		} else {
			rejected++
		}
	}}
	start := time.Now()
	for i := 0; i < n; i++ {
		spec, err := streamSpec(r, topo, hostIDs, hostsPer, fmt.Sprintf("req%d", i))
		if err != nil {
			return err
		}
		if err := rec.Record(workload.CaptureAdd(spec)); err != nil {
			return err
		}
		if err := adm.request(spec); err != nil {
			return err
		}
		if r.Float64() < depart {
			if err := adm.flush(); err != nil {
				return err
			}
			if len(liveNames) == 0 {
				continue
			}
			j := r.Intn(len(liveNames))
			if err := rec.Record(workload.Op{Op: "del", Name: liveNames[j]}); err != nil {
				return err
			}
			ok, err := ctl.Release(liveNames[j])
			if err != nil {
				return err
			}
			if ok {
				released++
				liveNames = append(liveNames[:j], liveNames[j+1:]...)
			}
		}
	}
	if err := adm.flush(); err != nil {
		return err
	}
	if shardCtl != nil {
		// Apply the queued departures inside the timed region: they are
		// part of the stream's work.
		if err := shardCtl.Flush(); err != nil {
			return err
		}
	}
	if err := rec.Close(); err != nil {
		return fmt.Errorf("recording trace: %w", err)
	}
	elapsed := time.Since(start)

	mode := "incremental"
	if o.cold {
		mode = "cold"
	}
	if o.shards {
		mode = "sharded"
	}
	if o.batch > 0 {
		mode = fmt.Sprintf("%s, batch=%d", mode, o.batch)
	}
	t := report.NewTable(fmt.Sprintf("Request stream (%s controller)", mode), "metric", "value")
	t.AddRowf("requests", n)
	t.AddRowf("admitted", admitted)
	t.AddRowf("rejected", rejected)
	t.AddRowf("departures", released)
	t.AddRowf("resident flows", ctl.NumFlows())
	if shardCtl != nil {
		t.AddRowf("shards", shardCtl.NumShards())
	}
	t.AddRowf("switches x hosts", fmt.Sprintf("%d x %d", switches, hostsPer))
	t.AddRowf("elapsed", elapsed.Round(time.Millisecond).String())
	t.AddRowf("requests/s", fmt.Sprintf("%.0f", float64(n)/elapsed.Seconds()))
	if o.stats {
		t.AddRowf("fixpoint sweeps", conv.Iterations)
		t.AddRowf("worklist rounds", conv.WorklistRounds)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	return nil
}

// runTrace replays a recorded request trace deterministically: one
// decision line per operation, no timing, so runs of the same trace
// through the sequential, sharded and batched controllers can be
// compared byte for byte. A departure flushes the pending batch
// first, exactly like the recording side, so decision order is the
// request order regardless of batching.
func runTrace(w io.Writer, path string, o runOpts) error {
	h, ops, err := workload.LoadTrace(path)
	if err != nil {
		return err
	}
	topo, _, err := h.Topo.Build()
	if err != nil {
		return err
	}
	ctl, batchCtl, shardCtl, err := buildController(topo, o)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(w)
	var admitted, rejected, released int
	var conv core.ConvergenceStats
	adm := &admitter{ctl: ctl, batchCtl: batchCtl, size: o.batch, report: func(d admission.Decision) {
		conv.Add(decisionStats(d))
		if d.Admitted {
			admitted++
			fmt.Fprintf(out, "admit %s\n", d.FlowName)
		} else {
			rejected++
			fmt.Fprintf(out, "reject %s\n", d.FlowName)
		}
	}}
	for _, op := range ops {
		switch op.Op {
		case "add":
			spec, err := op.Spec(topo)
			if err != nil {
				return err
			}
			if err := adm.request(spec); err != nil {
				return err
			}
		case "del":
			if err := adm.flush(); err != nil {
				return err
			}
			ok, err := ctl.Release(op.Name)
			if err != nil {
				return err
			}
			verdict := "miss"
			if ok {
				released++
				verdict = "ok"
			}
			fmt.Fprintf(out, "release %s %s\n", op.Name, verdict)
		}
	}
	if err := adm.flush(); err != nil {
		return err
	}
	if shardCtl != nil {
		if err := shardCtl.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "admitted=%d rejected=%d released=%d resident=%d\n",
		admitted, rejected, released, ctl.NumFlows())
	if o.stats {
		// Off the golden path: the decision log above is pinned byte for
		// byte across controller variants, the stats line is diagnostic.
		fmt.Fprintf(out, "stats sweeps=%d rounds=%d\n", conv.Iterations, conv.WorklistRounds)
	}
	return out.Flush()
}

// wireAdmitter mirrors admitter over the gmfnet-admitd wire protocol:
// requests go out one by one or — when size > 0 — as one "batch" op,
// and the verdicts come back in request order. Callers flush before a
// departure and at end of stream, exactly like the in-process path, so
// the decision log stays byte-identical.
type wireAdmitter struct {
	cli     *client.Client
	size    int
	pending []workload.Op
	report  func(name string, admitted bool)
}

func (a *wireAdmitter) request(op workload.Op) error {
	if a.size <= 0 {
		ok, err := a.cli.Add(op)
		if err != nil {
			return err
		}
		a.report(op.Name, ok)
		return nil
	}
	a.pending = append(a.pending, op)
	if len(a.pending) >= a.size {
		return a.flush()
	}
	return nil
}

func (a *wireAdmitter) flush() error {
	if len(a.pending) == 0 {
		return nil
	}
	verdicts, err := a.cli.Batch(a.pending)
	if err != nil {
		return err
	}
	for i, ok := range verdicts {
		a.report(a.pending[i].Name, ok)
	}
	a.pending = a.pending[:0]
	return nil
}

// runTraceConnect replays a recorded trace against a running
// gmfnet-admitd daemon, printing the same decision lines as runTrace —
// the daemon serializes submissions in arrival order, so a fresh daemon
// replaying the trace produces the byte-identical golden log over the
// wire. The trace header's TopoSpec rides the hello, so connecting to a
// daemon serving a different topology fails fast.
func runTraceConnect(w io.Writer, path, addr string, batch int) error {
	h, ops, err := workload.LoadTrace(path)
	if err != nil {
		return err
	}
	cli, err := client.Dial(client.Network(addr), addr, h.Topo)
	if err != nil {
		return err
	}
	defer cli.Close()
	out := bufio.NewWriter(w)
	var admitted, rejected int
	released := 0
	adm := &wireAdmitter{cli: cli, size: batch, report: func(name string, ok bool) {
		if ok {
			admitted++
			fmt.Fprintf(out, "admit %s\n", name)
		} else {
			rejected++
			fmt.Fprintf(out, "reject %s\n", name)
		}
	}}
	for _, op := range ops {
		switch op.Op {
		case "add":
			if err := adm.request(op); err != nil {
				return err
			}
		case "del":
			if err := adm.flush(); err != nil {
				return err
			}
			ok, err := cli.Release(op.Name)
			if err != nil {
				return err
			}
			verdict := "miss"
			if ok {
				released++
				verdict = "ok"
			}
			fmt.Fprintf(out, "release %s %s\n", op.Name, verdict)
		}
	}
	if err := adm.flush(); err != nil {
		return err
	}
	st, err := cli.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "admitted=%d rejected=%d released=%d resident=%d\n",
		admitted, rejected, released, st.Resident)
	return out.Flush()
}

// buildController assembles the stream/trace controller variant: the
// from-scratch baseline, the closure-sharded controller, or the
// monolithic incremental one. The batchRequester is non-nil for the
// engine-backed variants; shardCtl is non-nil only with -shards (the
// caller Flushes it to apply its queued departures).
func buildController(topo *network.Topology, o runOpts) (requester, batchRequester, *admission.ShardedController, error) {
	switch {
	case o.cold:
		ctl, err := admission.NewColdController(network.New(topo), core.Config{})
		return ctl, nil, nil, err
	case o.shards:
		ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
		return ctl, ctl, ctl, err
	default:
		ctl, err := admission.NewController(network.New(topo), core.Config{})
		return ctl, ctl, nil, err
	}
}

// runOpts selects the stream/trace controller variant and its reporting.
type runOpts struct {
	cold, shards bool
	batch        int
	// stats reports aggregated ConvergenceStats over the whole run.
	stats bool
}

// decisionStats extracts the convergence breakdown of one decision's
// analysis, wherever the controller variant put it: engine-backed
// controllers publish a view, the cold baseline a detached result.
func decisionStats(d admission.Decision) core.ConvergenceStats {
	if d.View != nil {
		return d.View.Stats()
	}
	if d.Result != nil {
		return d.Result.Stats
	}
	return core.ConvergenceStats{}
}

// streamSpec draws one request: mostly VoIP calls, some CBR video, and —
// like real edge traffic — mostly between hosts on the same switch, so
// the incremental controller's affected set stays local; one in five
// requests crosses the backbone.
func streamSpec(r *rand.Rand, topo *network.Topology, hosts []network.NodeID, hostsPer int, name string) (*network.FlowSpec, error) {
	for {
		var src, dst network.NodeID
		if r.Float64() < 0.8 {
			// Local call: both endpoints under the same switch.
			s := r.Intn(len(hosts) / hostsPer)
			src = hosts[s*hostsPer+r.Intn(hostsPer)]
			dst = hosts[s*hostsPer+r.Intn(hostsPer)]
		} else {
			src = hosts[r.Intn(len(hosts))]
			dst = hosts[r.Intn(len(hosts))]
		}
		if src == dst {
			continue
		}
		route, err := topo.Route(src, dst)
		if err != nil {
			continue
		}
		spec := &network.FlowSpec{Route: route, Priority: network.Priority(1 + r.Intn(3))}
		if r.Intn(4) < 3 {
			spec.Flow = trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond})
			spec.RTP = true
		} else {
			spec.Flow = trace.CBRVideo(name, 4000+r.Int63n(12000),
				33*units.Millisecond, 200*units.Millisecond)
		}
		return spec, nil
	}
}
