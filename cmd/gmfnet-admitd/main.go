// Command gmfnet-admitd serves the closure-sharded admission controller
// as a long-running daemon: clients connect over TCP or a unix socket,
// speak the JSON-lines wire protocol of internal/admitd (the
// workload.Op trace schema behind a versioned hello), and receive
// admission verdicts plus — for flows they subscribe to — pushed
// closure-change events whenever an admitted or departing peer alters
// their interference closure.
//
// Usage:
//
//	gmfnet-admitd [-listen ADDR] [-unix PATH] [-topo KIND] [-switches K] [-fanout F] [-hosts H] [-queue N]
//	              [-cpuprofile F] [-memprofile F] [-blockprofile F]
//	gmfnet-admitd -status ADDR
//
// The daemon serves exactly one topology, fixed at startup; client
// hellos carrying a different TopoSpec are refused. SIGTERM or SIGINT
// drains gracefully: stop accepting, answer every request already
// decided, tell every connection with a "drain" message, then flush and
// close the controller.
//
// -cpuprofile, -memprofile and -blockprofile FILE write pprof profiles
// of the daemon's whole serving life, from startup to the end of the
// drain (`go tool pprof FILE`) — the way to see where a load test's time
// went without patching the daemon. Every request is decided on its
// connection's reader goroutine, holding the server mutex, and answered
// from it with no hand-off; the blocking profile attributes the waits
// that remain — readers of different connections contending for the
// server mutex, writer goroutines woken for events pushed by another
// connection's op — to stacks.
//
// -status dials a running daemon as an observer (zero-TopoSpec hello),
// fetches its counters snapshot and prints them — aggregate admission
// accounting plus one row per live connection.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"gmfnet/internal/admitd"
	"gmfnet/internal/admitd/client"
	"gmfnet/internal/profiling"
	"gmfnet/internal/report"
	"gmfnet/internal/workload"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "gmfnet-admitd:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer, stop <-chan os.Signal) (err error) {
	fs := flag.NewFlagSet("gmfnet-admitd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "TCP listen address (empty to disable)")
	unixPath := fs.String("unix", "", "unix socket path to listen on as well")
	topoKind := fs.String("topo", "campus", "served topology kind: campus, backbone, fronthaul or clos")
	switches := fs.Int("switches", 8, "topology switches (campus/backbone PoPs/fronthaul hubs/clos leaves)")
	fanout := fs.Int("fanout", 2, "topology fanout (unused by campus)")
	hosts := fs.Int("hosts", 4, "hosts per topology group")
	queue := fs.Int("queue", 128, "per-connection outbound queue bound; overflow disconnects the peer")
	status := fs.String("status", "", "print a running daemon's counters (address or unix socket path) and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the daemon's run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile after the drain to this file")
	blockprofile := fs.String("blockprofile", "", "write a pprof blocking profile after the drain to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q (see -h)", fs.Arg(0))
	}
	if *status != "" {
		return runStatus(w, *status)
	}
	if *listen == "" && *unixPath == "" {
		return fmt.Errorf("nothing to listen on: set -listen and/or -unix")
	}

	prof, err := profiling.Start(*cpuprofile, *memprofile, *blockprofile)
	if err != nil {
		return err
	}
	// Stopped on every way out: after the drain, or when startup fails.
	defer func() {
		if perr := prof.Stop(); err == nil {
			err = perr
		}
	}()

	spec := workload.TopoSpec{Kind: *topoKind, Switches: *switches, Hosts: *hosts, Fanout: *fanout}
	if spec.Kind == "campus" {
		spec.Fanout = 0
	}
	srv, err := admitd.New(admitd.Config{
		Topo:  spec,
		Queue: *queue,
	})
	if err != nil {
		return err
	}

	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "listening on tcp %s\n", l.Addr())
		srv.Serve(l)
	}
	if *unixPath != "" {
		// A stale socket file from an unclean exit blocks the bind.
		if err := os.Remove(*unixPath); err != nil && !os.IsNotExist(err) {
			return err
		}
		l, err := net.Listen("unix", *unixPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "listening on unix %s\n", *unixPath)
		srv.Serve(l)
	}

	sig := <-stop
	fmt.Fprintf(w, "draining on %v\n", sig)
	err = srv.Drain()
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
	fmt.Fprintf(w, "drained: resident=%d\n", len(srv.Residents()))
	return err
}

// runStatus implements -status: observer hello, one stats op, two
// tables.
func runStatus(w io.Writer, addr string) error {
	cli, err := client.Dial(client.Network(addr), addr, workload.TopoSpec{})
	if err != nil {
		return err
	}
	defer cli.Close()
	st, err := cli.Stats()
	if err != nil {
		return err
	}
	topo := cli.ServerTopo()
	kind := topo.Kind
	if kind == "" {
		kind = "campus"
	}
	t := report.NewTable(fmt.Sprintf("gmfnet-admitd %s (%s %dx%dx%d)", addr, kind, topo.Switches, topo.Fanout, topo.Hosts), "metric", "value")
	t.AddRowf("admitted", st.Admitted)
	t.AddRowf("rejected", st.Rejected)
	t.AddRowf("released", st.Released)
	t.AddRowf("resident flows", st.Resident)
	t.AddRowf("connections", st.Conns)
	t.AddRowf("connections ever", st.TotalConns)
	t.AddRowf("subscriptions", st.Subs)
	t.AddRowf("dropped (slow)", st.Dropped)
	t.AddRowf("bad lines", st.BadLines)
	t.AddRowf("ops", st.Ops)
	t.AddRowf("verdicts", st.Verdicts)
	t.AddRowf("events", st.Events)
	if err := t.Render(w); err != nil {
		return err
	}
	if len(st.PerConn) == 0 {
		return nil
	}
	pc := report.NewTable("Connections", "id", "addr", "ops", "verdicts", "events", "subs", "queued")
	for _, c := range st.PerConn {
		// Unix-socket peers have empty (or "@"-anonymous) addresses.
		addr := c.Addr
		if addr == "" || addr == "@" {
			addr = "unix"
		}
		pc.AddRowf(c.ID, addr, c.Ops, c.Verdicts, c.Events, c.Subs, c.Queue)
	}
	return pc.Render(w)
}
