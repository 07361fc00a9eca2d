// Command gmfnet-admit replays the flows of a JSON scenario as a sequence
// of admission requests (Section 3.5's admission controller): each flow is
// tentatively added, the holistic analysis re-runs, and the flow is kept
// only if every admitted flow stays schedulable.
//
// Usage:
//
//	gmfnet-admit [-sporadic] [-example] [scenario.json]
//	gmfnet-admit -trace FILE [-cold] [-batch B] [-stats]
//	gmfnet-admit -trace FILE -connect ADDR [-batch B]
//
// Every mode accepts -cpuprofile and -memprofile FILE to write pprof
// profiles of the run (`go tool pprof` reads them) — the way to see
// where admission time goes. The run decides on one goroutine, so CPU
// and heap cover all of it.
//
// With -sporadic every request is first collapsed to the sporadic model,
// reproducing the capacity loss the paper's GMF model avoids.
//
// With -trace the command replays a recorded request trace (written by
// gmfnet-load -record, or by hand) deterministically through the
// closure-sharded controller and prints one decision line per
// operation — timing-free output, so runs of the same trace are
// byte-identical across -batch sizes and against -cold, the
// from-scratch referee controller. -batch B admits requests in batches
// of B through RequestBatch (one converged worklist per interference
// group; a departure flushes the pending batch first), whose decisions
// equal one-by-one decisions by construction. The trace format
// (internal/workload) is shared with gmfnet-load; its header names the
// generated topology — campus, backbone, fronthaul or clos.
//
// With -connect ADDR the trace is replayed against a running
// gmfnet-admitd daemon instead of an in-process controller: each
// operation travels the JSON-lines wire protocol and the decision log
// printed here is byte-identical to the local replay — the daemon
// integration gate in CI diffs exactly that. The controller is the
// daemon's, so -connect rejects the local engine flags; -batch still
// applies (batches ride the wire as one "batch" op).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"gmfnet/internal/admission"
	"gmfnet/internal/admitd/client"
	"gmfnet/internal/config"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/profiling"
	"gmfnet/internal/report"
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
	cold := fs.Bool("cold", false, "trace mode: use the from-scratch referee controller")
	batch := fs.Int("batch", 0, "trace mode: admit requests in batches of this size through RequestBatch")
	stats := fs.Bool("stats", false, "trace mode: report aggregated convergence statistics")
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
	if *connect != "" {
		if *traceFile == "" {
			return fmt.Errorf("-connect needs -trace")
		}
		if *cold || *stats {
			return fmt.Errorf("-connect replays through the daemon's controller; drop the local engine flags")
		}
	}

	prof, err := profiling.Start(*cpuprofile, *memprofile, "")
	if err != nil {
		return err
	}
	err = func() error {
		if *traceFile != "" {
			if *connect != "" {
				return runTraceConnect(os.Stdout, *traceFile, *connect, *batch)
			}
			return runTrace(os.Stdout, *traceFile, runOpts{cold: *cold, batch: *batch, stats: *stats})
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
			return fmt.Errorf("need a scenario file, -example or -trace (see -h)")
		}

		full, err := scenario.Build()
		if err != nil {
			return err
		}
		// Rebuild an empty network on the same topology and replay the
		// flows as requests.
		empty := network.New(full.Topo)
		ctl, err := admission.NewShardedController(empty, core.Config{})
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

// requester is what trace mode needs from a controller; the sharded
// ShardedController and the from-scratch ColdController satisfy it.
type requester interface {
	Request(fs *network.FlowSpec) (admission.Decision, error)
	Release(name string) (bool, error)
	NumFlows() int
}

// runOpts selects the trace-mode controller and its reporting.
type runOpts struct {
	// cold replays through the from-scratch ColdController.
	cold bool
	// batch > 0 admits requests in batches of that size through the
	// sharded controller's RequestBatch; it needs !cold.
	batch int
	// stats reports aggregated ConvergenceStats over the whole run.
	stats bool
}

// runTrace replays a recorded request trace deterministically: one
// decision line per operation, no timing, so runs of the same trace
// through the sharded controller (one by one or batched) and the cold
// referee can be compared byte for byte. A departure flushes the
// pending batch first, so decision order is the request order
// regardless of batching.
func runTrace(w io.Writer, path string, o runOpts) error {
	h, ops, err := workload.LoadTrace(path)
	if err != nil {
		return err
	}
	topo, _, err := h.Topo.Build()
	if err != nil {
		return err
	}
	var ctl requester
	var sharded *admission.ShardedController
	if o.cold {
		ctl, err = admission.NewColdController(network.New(topo), core.Config{})
	} else {
		sharded, err = admission.NewShardedController(network.New(topo), core.Config{})
		ctl = sharded
	}
	if err != nil {
		return err
	}
	if sharded != nil {
		// Only verdicts and their stats are read: keep no decision log.
		sharded.SetRetention(admission.RetainCounters)
	}
	out := bufio.NewWriter(w)
	var admitted, rejected, released int
	var conv core.ConvergenceStats
	report := func(d admission.Decision) {
		conv.Add(decisionStats(d))
		if d.Admitted {
			admitted++
			fmt.Fprintf(out, "admit %s\n", d.FlowName)
		} else {
			rejected++
			fmt.Fprintf(out, "reject %s\n", d.FlowName)
		}
	}
	var pending []*network.FlowSpec
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		ds, err := sharded.RequestBatch(pending)
		if err != nil {
			return err
		}
		for _, d := range ds {
			report(d)
		}
		pending = pending[:0]
		return nil
	}
	for _, op := range ops {
		switch op.Op {
		case "add":
			spec, err := op.Spec(topo)
			if err != nil {
				return err
			}
			if o.batch <= 0 {
				d, err := ctl.Request(spec)
				if err != nil {
					return err
				}
				report(d)
				continue
			}
			if pending = append(pending, spec); len(pending) >= o.batch {
				if err := flush(); err != nil {
					return err
				}
			}
		case "del":
			if err := flush(); err != nil {
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
	if err := flush(); err != nil {
		return err
	}
	if sharded != nil {
		if err := sharded.Flush(); err != nil {
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

// wireAdmitter mirrors runTrace's admission over the gmfnet-admitd wire
// protocol: requests go out one by one or — when size > 0 — as one
// "batch" op, and the verdicts come back in request order. Callers
// flush before a departure and at end of stream, exactly like the
// in-process path, so the decision log stays byte-identical.
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

// decisionStats extracts the convergence breakdown of one decision's
// analysis, wherever the controller put it: the sharded controller
// records the verdict, the cold referee a detached result.
func decisionStats(d admission.Decision) core.ConvergenceStats {
	if d.View != nil {
		return d.View.Stats()
	}
	if d.Result != nil {
		return d.Result.Stats
	}
	return core.ConvergenceStats{}
}
