package client_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"gmfnet/internal/admitd"
	"gmfnet/internal/admitd/client"
	"gmfnet/internal/workload"
)

var campus22 = workload.TopoSpec{Kind: "campus", Switches: 2, Hosts: 2}

func voipOp(name string) workload.Op {
	return workload.Op{Op: "add", Name: name, Kind: "voip", Src: "h0_0", Dst: "h0_1",
		Prio: 1, DeadlinePS: 100_000_000_000, RTP: true}
}

// newServer boots a daemon serving campus22 on loopback TCP.
func newServer(t *testing.T) (*admitd.Server, string) {
	t.Helper()
	srv, err := admitd.New(admitd.Config{Topo: campus22})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	return srv, l.Addr().String()
}

// fakeDaemon accepts one connection, reads the hello line and hands
// the rest of the conversation to serve.
func fakeDaemon(t *testing.T, serve func(br *bufio.Reader, nc net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := br.ReadBytes('\n'); err != nil {
			return
		}
		serve(br, nc)
	}()
	return l.Addr().String()
}

// TestDialRefusals pins that a refused hello comes back from Dial as an
// error carrying the daemon's message: a topology mismatch from a real
// daemon, and version skew from a daemon speaking a newer protocol.
func TestDialRefusals(t *testing.T) {
	_, addr := newServer(t)
	backbone := workload.TopoSpec{Kind: "backbone", Switches: 2, Hosts: 2, Fanout: 2}
	if _, err := client.Dial("tcp", addr, backbone); err == nil || !strings.Contains(err.Error(), "topology mismatch") {
		t.Fatalf("mismatched topology: Dial error %v, want the daemon's topology mismatch", err)
	}

	skew := fmt.Sprintf("admitd: protocol version %d, want %d", admitd.ProtocolVersion, admitd.ProtocolVersion+1)
	newer := fakeDaemon(t, func(_ *bufio.Reader, nc net.Conn) {
		json.NewEncoder(nc).Encode(admitd.Msg{Kind: admitd.KindError, Err: skew})
	})
	if _, err := client.Dial("tcp", newer, campus22); err == nil || !strings.Contains(err.Error(), skew) {
		t.Fatalf("version skew: Dial error %v, want one carrying %q", err, skew)
	}
}

// TestCallsAfterDrain pins that once the daemon announced its drain,
// every call fails with ErrDraining.
func TestCallsAfterDrain(t *testing.T) {
	srv, addr := newServer(t)
	cli, err := client.Dial("tcp", addr, campus22)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if ok, err := cli.Add(voipOp("a")); err != nil || !ok {
		t.Fatalf("admit a: %v %v", ok, err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cli.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client never observed the drain")
	}
	calls := map[string]func() error{
		"add":     func() error { _, err := cli.Add(voipOp("b")); return err },
		"batch":   func() error { _, err := cli.Batch([]workload.Op{voipOp("c")}); return err },
		"release": func() error { _, err := cli.Release("a"); return err },
		"sub":     func() error { return cli.Subscribe("a") },
		"unsub":   func() error { return cli.Unsubscribe("a") },
		"stats":   func() error { _, err := cli.Stats(); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, client.ErrDraining) {
			t.Errorf("%s after drain: %v, want ErrDraining", name, err)
		}
	}
}

// TestEventCountBeforeVerdict pins that an event the daemon sent ahead
// of a verdict is counted and recorded by the time the call returns.
func TestEventCountBeforeVerdict(t *testing.T) {
	addr := fakeDaemon(t, func(br *bufio.Reader, nc net.Conn) {
		enc := json.NewEncoder(nc)
		topo := campus22
		enc.Encode(admitd.Msg{Kind: admitd.KindHello, V: admitd.ProtocolVersion, Topo: &topo})
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		var op workload.Op
		if json.Unmarshal(line, &op) != nil {
			return
		}
		enc.Encode(admitd.Msg{Kind: admitd.KindEvent, Flow: "w", Peer: op.Name, Event: admitd.EventAdmitted, Residents: 2})
		enc.Encode(admitd.Msg{Kind: admitd.KindVerdict, ID: op.ID, Flow: op.Name, Verdict: admitd.VerdictAdmit})
		br.ReadBytes('\n') // hold the connection until the client closes it
	})
	cli, err := client.Dial("tcp", addr, campus22)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if ok, err := cli.Add(voipOp("a")); err != nil || !ok {
		t.Fatalf("admit a: %v %v", ok, err)
	}
	if got := cli.EventCount(); got != 1 {
		t.Fatalf("event count after the verdict = %d, want 1", got)
	}
	if ev, ok := cli.LastEvent("w"); !ok || ev.Peer != "a" || ev.Residents != 2 {
		t.Fatalf("last event for w = %+v (%v), want peer a, residents 2", ev, ok)
	}
}
