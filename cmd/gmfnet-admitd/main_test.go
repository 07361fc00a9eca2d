package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// lineWriter hands each Write to a channel, so the test can read the
// daemon's "listening on ..." lines while run is still blocked on the
// stop channel.
type lineWriter struct{ ch chan string }

func (w lineWriter) Write(p []byte) (int, error) {
	w.ch <- string(p)
	return len(p), nil
}

// TestRunLifecycle boots the daemon on an ephemeral TCP port plus a
// unix socket with all three pprof flags set, exercises -status against
// both listeners, then delivers SIGTERM and expects a clean drain: run
// returns nil, the socket file is gone and every profile was written.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "admitd.sock")
	profiles := map[string]string{}
	args := []string{"-listen", "127.0.0.1:0", "-unix", sock, "-switches", "2", "-hosts", "2"}
	for _, kind := range []string{"cpu", "mem", "block"} {
		profiles[kind] = filepath.Join(dir, kind+".prof")
		args = append(args, "-"+kind+"profile", profiles[kind])
	}
	stop := make(chan os.Signal, 1)
	out := lineWriter{ch: make(chan string, 16)}
	done := make(chan error, 1)
	go func() { done <- run(args, out, stop) }()

	readLine := func(prefix string) string {
		t.Helper()
		for {
			select {
			case line := <-out.ch:
				if strings.HasPrefix(line, prefix) {
					return strings.TrimSpace(strings.TrimPrefix(line, prefix))
				}
			case err := <-done:
				t.Fatalf("daemon exited early: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out waiting for %q line", prefix)
			}
		}
	}
	addr := readLine("listening on tcp ")
	readLine("listening on unix ")

	for _, target := range []string{addr, sock} {
		var st bytes.Buffer
		if err := run([]string{"-status", target}, &st, nil); err != nil {
			t.Fatalf("-status %s: %v", target, err)
		}
		if !strings.Contains(st.String(), "resident flows") {
			t.Fatalf("-status %s output missing counters:\n%s", target, st.String())
		}
	}

	stop <- syscall.SIGTERM
	readLine("drained:")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Fatalf("socket file still present after drain: %v", err)
	}
	for kind, path := range profiles {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s profile after drain: %v (want a non-empty file)", kind, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-listen", "", "-topo", "campus"}, // nothing to listen on
		{"-topo", "torus"},                 // unknown topology kind
		{"-topo", "backbone", "-fanout", "0"},
		{"-switches", "0"},
		{"stray-arg"},
		{"-status", "127.0.0.1:1"}, // nothing listening there
		{"-cpuprofile", "/nonexistent-dir/cpu.prof"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
