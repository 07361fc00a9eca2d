package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gmfnet/internal/workload"
)

// buildDir is where the benchmark keeps everything it writes: the
// daemon binary and one socket directory per daemon. It is relative to
// the working directory (the root of the checkout), which keeps unix
// socket paths far below the 108-byte sun_path limit however deep the
// checkout sits.
const buildDir = ".bench_build"

// buildDaemon compiles ./cmd/gmfnet-admitd once into a fresh temp dir
// under buildDir and returns that dir (the caller removes it) and the
// binary's path.
func buildDaemon(ctx context.Context) (dir, bin string, err error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", "", err
	}
	bin = filepath.Join(dir, "gmfnet-admitd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gmfnet-admitd")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", "", fmt.Errorf("go build ./cmd/gmfnet-admitd: %w\n%s", err, out)
	}
	return dir, bin, nil
}

// daemon is one gmfnet-admitd child process.
type daemon struct {
	cmd  *exec.Cmd
	dir  string // holds the socket; removed by stop
	sock string
	// exited is closed, after waitErr is set, once the child has been
	// reaped.
	exited  chan struct{}
	waitErr error
}

// listenWatch is the child's stdout: it closes ready when the daemon
// has announced its unix listener and discards everything else, so the
// child never blocks on a full pipe. os/exec writes to it from one
// goroutine.
type listenWatch struct {
	buf   []byte
	ready chan struct{}
	seen  bool
}

func (w *listenWatch) Write(p []byte) (int, error) {
	if !w.seen {
		w.buf = append(w.buf, p...)
		if bytes.Contains(w.buf, []byte("listening on unix")) {
			w.seen = true
			w.buf = nil
			close(w.ready)
		}
	}
	return len(p), nil
}

const (
	startTimeout = 20 * time.Second
	// stopGrace is how long a SIGTERMed daemon may take to drain before
	// it is killed.
	stopGrace = 10 * time.Second
)

// startDaemon spawns the daemon on a unix socket in a fresh directory
// (no TCP listener, default GOMAXPROCS) and waits until it listens.
// Cancelling ctx terminates the child.
func startDaemon(ctx context.Context, bin, parent string, topo workload.TopoSpec) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "d-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, sock: filepath.Join(dir, "s"), exited: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin,
		"-listen", "", "-unix", d.sock, "-queue", "1024",
		"-topo", topo.Kind,
		"-switches", strconv.Itoa(topo.Switches),
		"-fanout", strconv.Itoa(topo.Fanout),
		"-hosts", strconv.Itoa(topo.Hosts))
	watch := &listenWatch{ready: make(chan struct{})}
	d.cmd.Stdout = watch
	d.cmd.Stderr = os.Stderr
	d.cmd.Cancel = func() error { return d.cmd.Process.Signal(syscall.SIGTERM) }
	d.cmd.WaitDelay = stopGrace
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-watch.ready:
		return d, nil
	case <-d.exited:
	case <-time.After(startTimeout):
	}
	err = d.stop()
	return nil, fmt.Errorf("gmfnet-admitd did not listen within %v (exit: %v)", startTimeout, err)
}

// stop signals the daemon, waits until it has exited (killing it if it
// does not drain within stopGrace) and removes its socket directory. It
// returns the child's exit error; a daemon that drained cleanly on
// SIGTERM exits 0.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopGrace):
		d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dir)
	return d.waitErr
}

// procUsage is a /proc snapshot of the child.
type procUsage struct {
	cpu   time.Duration // time on a CPU, all threads
	hwmKB int64         // VmHWM
}

// usage reads the child's CPU time as the sum of its threads' on-CPU
// nanoseconds (/proc/<pid>/task/*/schedstat, first field): the
// utime+stime of /proc/<pid>/stat count 10 ms ticks, far too coarse for
// a capacity-phase slice of 100-200 ms. The Go runtime keeps its threads
// for the life of the process, so the sum does not lose exited ones.
func (d *daemon) usage() (procUsage, error) {
	proc := filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid))
	tasks, err := os.ReadDir(filepath.Join(proc, "task"))
	if err != nil {
		return procUsage{}, err
	}
	var u procUsage
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(proc, "task", t.Name(), "schedstat"))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) && len(tasks) > 1 {
				continue // a thread that exited between the two reads
			}
			return procUsage{}, err
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return procUsage{}, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return procUsage{}, fmt.Errorf("bad schedstat %q", b)
		}
		u.cpu += time.Duration(ns)
	}
	status, err := os.ReadFile(filepath.Join(proc, "status"))
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			u.hwmKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return procUsage{}, fmt.Errorf("bad VmHWM line %q", line)
			}
		}
	}
	return u, nil
}
