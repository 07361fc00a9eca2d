package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestTraceRoundTrip(t *testing.T) {
	spec := TopoSpec{Kind: "backbone", Switches: 2, Fanout: 2, Hosts: 2}
	h, ops, err := Synthesize(spec, Config{Seed: 9, Requests: 300, Hold: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h, ops); err != nil {
		t.Fatal(err)
	}
	h2, ops2, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("header %+v, want %+v", h2, h)
	}
	if !reflect.DeepEqual(ops2, ops) {
		t.Fatal("ops changed across write/read round trip")
	}
	// And the re-serialisation is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, h2, ops2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("trace bytes changed across round trip")
	}
}

func TestOpSpecRebuild(t *testing.T) {
	spec := TopoSpec{Kind: "clos", Switches: 2, Hosts: 2, Fanout: 1}
	topo, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, ops, err := Synthesize(spec, Config{Seed: 3, Requests: 200, Hold: 16})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, op := range ops {
		if op.Op != "add" {
			continue
		}
		fs, err := op.Spec(topo)
		if err != nil {
			t.Fatal(err)
		}
		// Spec must carry every recorded field into the flow spec.
		fr := fs.Flow.Frames[0]
		if fs.Flow.Name != op.Name || string(fs.Route[0]) != op.Src || string(fs.Route[len(fs.Route)-1]) != op.Dst ||
			int(fs.Priority) != op.Prio || fs.RTP != op.RTP || fs.Flow.N() != 1 || int64(fr.Deadline) != op.DeadlinePS {
			t.Fatalf("Spec(%+v) = %+v (frame %+v)", op, fs, fr)
		}
		kinds[op.Kind]++
		switch op.Kind {
		case "voip":
			if fr.PayloadBits != 160*8 {
				t.Fatalf("voip op %s: payload %d bits, want G.711's %d", op.Name, fr.PayloadBits, 160*8)
			}
		case "cbr":
			if fr.PayloadBits != op.Bytes*8 || int64(fr.MinSep) != op.PeriodPS {
				t.Fatalf("cbr op %+v: frame %+v", op, fr)
			}
		}
	}
	if kinds["voip"] == 0 || kinds["cbr"] == 0 {
		t.Fatalf("trace exercises kinds %v, want both voip and cbr", kinds)
	}
	bad := Op{Op: "add", Name: "x", Kind: "mpeg", Src: "h0_0", Dst: "h0_1"}
	if _, err := bad.Spec(topo); err == nil {
		t.Fatal("unknown kind accepted")
	}
	lost := Op{Op: "add", Name: "x", Kind: "voip", Src: "h0_0", Dst: "nope"}
	if _, err := lost.Spec(topo); err == nil {
		t.Fatal("unroutable endpoints accepted")
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	const goodHeader = "{\"topo\":{\"switches\":2,\"hosts\":2}}\n"
	for _, tc := range []struct {
		name, in, want string
	}{
		{"empty", "", "bad header"},
		{"truncated header", "{\"topo\":{\"switch", "bad header"},
		{"header is not json", "switches=2 hosts=2\n", "bad header"},
		{"unknown kind", "{\"topo\":{\"kind\":\"warp\",\"switches\":2,\"hosts\":2}}\n", "unknown topology kind"},
		{"missing topo sizes", "{\"topo\":{}}\n", "at least 1 switch"},
		{"campus one host", "{\"topo\":{\"switches\":2,\"hosts\":1}}\n", "at least 2 hosts"},
		{"backbone no fanout", "{\"topo\":{\"kind\":\"backbone\",\"switches\":2,\"hosts\":2}}\n", "fanout"},
		{"fronthaul no fanout", "{\"topo\":{\"kind\":\"fronthaul\",\"switches\":2,\"hosts\":2}}\n", "fanout"},
		{"clos no fanout", "{\"topo\":{\"kind\":\"clos\",\"switches\":2,\"hosts\":2}}\n", "fanout"},
		{"unknown op", goodHeader + "{\"op\":\"mod\",\"name\":\"f\"}\n", "unknown op"},
		// The wire-only op kinds (internal/admitd) must never appear in a
		// trace file.
		{"wire op batch", goodHeader + "{\"op\":\"batch\"}\n", "unknown op"},
		{"wire op sub", goodHeader + "{\"op\":\"sub\",\"name\":\"f\"}\n", "unknown op"},
		{"truncated op", goodHeader + "{\"op\":", "op 0"},
		{"garbage op line", goodHeader + "not json\n", "op 0"},
		{"bad op after good", goodHeader + "{\"op\":\"del\",\"name\":\"f\"}\n{\"op\":\"mod\"}\n", "op 1"},
	} {
		_, _, err := ReadTrace(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: ReadTrace succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadTraceMissingFile(t *testing.T) {
	if _, _, err := LoadTrace(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Fatal("LoadTrace on a missing file succeeded")
	}
	// And a file that exists but fails to parse reports its path.
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := writeFile(path, "{\"topo\":{\"switches\":0,\"hosts\":0}}\n"); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadTrace(path)
	if err == nil {
		t.Fatal("LoadTrace on a malformed file succeeded")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the file", err)
	}
}

func TestTopoSpecBuildKinds(t *testing.T) {
	for _, tc := range []struct {
		spec  TopoSpec
		hosts int
	}{
		{TopoSpec{Switches: 2, Hosts: 3}, 6},
		{TopoSpec{Kind: "campus", Switches: 2, Hosts: 3}, 6},
		{TopoSpec{Kind: "backbone", Switches: 2, Fanout: 3, Hosts: 2}, 12},
		{TopoSpec{Kind: "fronthaul", Switches: 2, Fanout: 2, Hosts: 3}, 12},
		{TopoSpec{Kind: "clos", Switches: 4, Fanout: 2, Hosts: 2}, 8},
	} {
		_, hosts, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if len(hosts) != tc.hosts {
			t.Fatalf("%+v: %d hosts, want %d", tc.spec, len(hosts), tc.hosts)
		}
		if g := tc.spec.Groups() * tc.spec.Group(); g != tc.hosts {
			t.Fatalf("%+v: Groups*Group = %d, want %d", tc.spec, g, tc.hosts)
		}
	}
	if _, _, err := (TopoSpec{Kind: "torus", Switches: 2, Hosts: 2}).Build(); err == nil {
		t.Fatal("unknown kind built")
	}
}
