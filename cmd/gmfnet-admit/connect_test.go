package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"

	"gmfnet/internal/admitd"
	"gmfnet/internal/workload"
)

// startDaemon boots a fresh in-process gmfnet-admitd serving the trace
// header's topology on a loopback listener ("tcp" or "unix") and
// returns its dial address. The daemon is drained on test cleanup.
func startDaemon(t *testing.T, tracePath, netw string) string {
	t.Helper()
	h, _, err := workload.LoadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := admitd.New(admitd.Config{Topo: h.Topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	var l net.Listener
	var addr string
	if netw == "unix" {
		addr = filepath.Join(t.TempDir(), "admitd.sock")
		l, err = net.Listen("unix", addr)
	} else {
		l, err = net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			addr = l.Addr().String()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	return addr
}

// TestDaemonTraceGolden extends the determinism pin over the wire: a
// fresh gmfnet-admitd per variant replays each generator trace through
// the JSON-lines protocol, and the decision log printed by -connect
// must equal the checked-in golden file byte for byte — the same gate
// the in-process controller variants pass. A fresh daemon per replay
// matters: daemon state persists across connections by design.
func TestDaemonTraceGolden(t *testing.T) {
	variants := []struct {
		name  string
		netw  string
		batch int
	}{
		{name: "tcp", netw: "tcp"},
		{name: "tcp-batch3", netw: "tcp", batch: 3},
		{name: "unix", netw: "unix"},
	}
	for _, gen := range []string{"backbone", "fronthaul", "clos"} {
		gen := gen
		t.Run(gen, func(t *testing.T) {
			tracePath := filepath.Join("testdata", gen+".trace")
			golden, err := os.ReadFile(filepath.Join("testdata", gen+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					addr := startDaemon(t, tracePath, v.netw)
					var out bytes.Buffer
					if err := runTraceConnect(&out, tracePath, addr, v.batch); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out.Bytes(), golden) {
						t.Fatalf("wire decision log differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
							out.Bytes(), golden)
					}
				})
			}
		})
	}
}

// TestConnectFlagErrors pins the -connect flag guards: the wire replay
// delegates the controller variant to the daemon, so local engine flags
// (and stream/record modes) are rejected up front.
func TestConnectFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-connect", "127.0.0.1:1"},
		{"-connect", "127.0.0.1:1", "-trace", "x.trace", "-cold"},
		{"-connect", "127.0.0.1:1", "-trace", "x.trace", "-parallel"},
		{"-connect", "127.0.0.1:1", "-trace", "x.trace", "-shards"},
		{"-connect", "127.0.0.1:1", "-trace", "x.trace", "-stats"},
		{"-connect", "127.0.0.1:1", "-stream", "5"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// And a live guard: connecting to a daemon serving a different
	// topology must fail at the hello, not mid-replay.
	addr := startDaemon(t, filepath.Join("testdata", "backbone.trace"), "tcp")
	var out bytes.Buffer
	if err := runTraceConnect(&out, filepath.Join("testdata", "clos.trace"), addr, 0); err == nil {
		t.Fatal("replaying a clos trace against a backbone daemon succeeded, want hello rejection")
	}
}
