// Package admitd turns the closure-sharded admission controller into a
// long-running network service: gmfnet-admitd serves concurrent
// admission streams over TCP or a unix socket behind a JSON-lines wire
// protocol (the workload.Op trace schema plus a versioned hello), and
// *pushes* verdict deltas to subscribers — a flow admitted into your
// interference closure changes your headroom, and tenants hear about
// it without polling.
//
// The shape is run-loop-owns-state with per-peer outbound queues:
//
//   - every connection gets a reader goroutine (decodes ops, forwards
//     them to the dispatcher) and a writer goroutine draining a
//     *bounded* outbound queue — a subscriber that stops reading
//     overflows its queue and is disconnected, never blocking the
//     dispatcher or the fold;
//   - a single dispatcher goroutine owns the controller and all
//     connection, subscription and closure-book state, and calls the
//     ShardedController in-line, one op at a time in arrival order, so
//     daemon decisions are byte-identical to an in-process replay of
//     the same op sequence (the golden daemon tests pin this over the
//     wire). Whenever it finds its inbox empty it yields once, so the
//     writers it just woke put their verdicts on the wire, and then
//     flushes the departures the controller queued, off the next op's
//     latency;
//   - the controller's notification hook (SetNotify) runs on the
//     dispatcher inside the call that caused the fold: it enters the
//     fold into the closure book (book.go: residents by spec, by name
//     and by directed link) and fans exactly one event out to the
//     subscribers of every resident flow sharing the fold's
//     interference closure, before the op's verdict is queued. A fold costs O(route length) while nobody
//     is subscribed to anything and one walk of the touched closure —
//     never of the resident set — when somebody is; network.Network's
//     union-find is the oracle the book is tested against, not a
//     second copy the daemon keeps.
//
// Drain (SIGTERM in the daemon, Server.Drain here) is graceful: stop
// accepting, finish every submission already queued, notify all
// connections with a "drain" message, flush and close their queues,
// then close the controller.
package admitd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// Config parameterises a Server.
type Config struct {
	// Topo names the served topology. Every client hello carrying a
	// non-zero TopoSpec must match it exactly; the zero spec is an
	// observer hello (status tooling) and is always accepted.
	Topo workload.TopoSpec
	// Queue bounds each connection's outbound message queue; a
	// connection whose queue overflows — a subscriber not draining its
	// events — is disconnected rather than ever blocking the
	// dispatcher. Default 128.
	Queue int
	// WriteTimeout bounds each wire write, so a stalled peer cannot
	// pin a writer goroutine past it. Default 5s.
	WriteTimeout time.Duration
	// Core configures the controller's engines (analysis caps, batch fan-out).
	Core core.Config
}

// Server is one admission daemon: a ShardedController, the closure
// book of its residents, and the dispatcher that serializes wire
// submissions into it.
type Server struct {
	cfg  Config
	topo *network.Topology
	ctl  *admission.ShardedController

	// ch carries register/op/unregister messages from connection
	// readers to the dispatcher; its FIFO order *is* the submission
	// order the controller sees.
	ch   chan dmsg
	stop chan struct{}
	once sync.Once
	done chan struct{}

	readers sync.WaitGroup
	connID  atomic.Int64

	lmu       sync.Mutex
	listeners []net.Listener
	closed    bool

	// Dispatcher-owned state, the controller included: touched only on
	// the dispatcher goroutine.
	book       *book
	owed       []*resident // affected's scratch
	conns      map[*conn]bool
	order      []*conn // live conns in accept order, for stable stats
	subs       map[string]map[*conn]bool
	totalConns int64
	dropped    int
	ops        int64
	verdicts   int64
	events     int64

	// Set by the dispatcher as it exits; read after Done.
	drainErr  error
	residents []*network.FlowSpec
}

// conn is one accepted connection. The counters and subscription set
// are dispatcher-owned; out is closed exactly once, by the dispatcher,
// when the connection is unregistered.
type conn struct {
	id   int64
	nc   net.Conn
	out  chan Msg
	subs map[string]bool

	ops, verdicts, events int64
}

// dmsg is one message on the dispatcher channel.
type dmsg struct {
	c     *conn
	op    *workload.Op
	reg   bool
	unreg bool
}

// New builds the served topology, the sharded controller (in
// counters-only retention — a daemon never re-reads its decision log,
// so memory stays flat at any request volume) and starts the
// dispatcher. Call Serve with one or more listeners, then Drain.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 128
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	topo, _, err := cfg.Topo.Build()
	if err != nil {
		return nil, err
	}
	ctl, err := admission.NewShardedController(network.New(topo), cfg.Core)
	if err != nil {
		return nil, err
	}
	ctl.SetRetention(admission.RetainCounters)
	s := &Server{
		cfg:   cfg,
		topo:  topo,
		ctl:   ctl,
		ch:    make(chan dmsg, 256),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		book:  newBook(),
		conns: make(map[*conn]bool),
		subs:  make(map[string]map[*conn]bool),
	}
	ctl.SetNotify(s.onFold)
	go s.dispatch()
	return s, nil
}

// Topo returns the served topology spec (what hellos must match).
func (s *Server) Topo() workload.TopoSpec { return s.cfg.Topo }

// Serve starts accepting connections on l. It may be called more than
// once (the daemon listens on TCP and a unix socket at the same time);
// all listeners are closed by Drain. A listener handed to a draining
// server is closed immediately.
func (s *Server) Serve(l net.Listener) {
	s.lmu.Lock()
	if s.closed {
		s.lmu.Unlock()
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.lmu.Unlock()
	go s.acceptLoop(l)
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed by Drain
		}
		s.readers.Add(1)
		go s.serveConn(nc)
	}
}

// helloTimeout bounds the handshake, so an idle port scan cannot pin a
// goroutine.
const helloTimeout = 10 * time.Second

// canonTopo normalises a TopoSpec for the hello equality check: an
// empty Kind means campus (the pre-generator trace header form), and
// campus ignores Fanout.
func canonTopo(t workload.TopoSpec) workload.TopoSpec {
	if t.Kind == "" {
		t.Kind = "campus"
	}
	if t.Kind == "campus" {
		t.Fanout = 0
	}
	return t
}

// serveConn is the connection's reader goroutine: handshake, then ops
// forwarded to the dispatcher until the peer hangs up (or the writer
// closes the socket underneath us, which is how drops and drain
// terminate a read loop).
func (s *Server) serveConn(nc net.Conn) {
	defer s.readers.Done()
	dec := json.NewDecoder(bufio.NewReader(nc))
	bw := bufio.NewWriter(nc)
	enc := json.NewEncoder(bw)
	reject := func(err error) {
		// Best effort on a dying connection; the close is the message.
		enc.Encode(Msg{Kind: KindError, Err: err.Error()})
		bw.Flush()
		nc.Close()
	}
	nc.SetReadDeadline(time.Now().Add(helloTimeout))
	var h Hello
	if err := dec.Decode(&h); err != nil {
		nc.Close()
		return
	}
	if h.V != ProtocolVersion {
		reject(fmt.Errorf("admitd: protocol version %d, want %d", h.V, ProtocolVersion))
		return
	}
	if h.Topo != (workload.TopoSpec{}) && canonTopo(h.Topo) != canonTopo(s.cfg.Topo) {
		reject(fmt.Errorf("admitd: topology mismatch: daemon serves %+v", s.cfg.Topo))
		return
	}
	nc.SetReadDeadline(time.Time{})
	topo := s.cfg.Topo
	if err := enc.Encode(Msg{Kind: KindHello, V: ProtocolVersion, Topo: &topo}); err != nil {
		nc.Close()
		return
	}
	if err := bw.Flush(); err != nil {
		nc.Close()
		return
	}
	c := &conn{
		id:   s.connID.Add(1),
		nc:   nc,
		out:  make(chan Msg, s.cfg.Queue),
		subs: make(map[string]bool),
	}
	go c.writeLoop(bw, s.cfg.WriteTimeout)
	s.ch <- dmsg{c: c, reg: true}
	for {
		var op workload.Op
		if err := dec.Decode(&op); err != nil {
			break
		}
		s.ch <- dmsg{c: c, op: &op}
	}
	s.ch <- dmsg{c: c, unreg: true}
}

// writeLoop drains the bounded outbound queue onto the socket. Every
// write rides a deadline, so a stalled peer costs at most one timeout;
// after the first failure remaining messages are discarded (the
// dispatcher has already given up on the connection by then, or will
// as soon as the queue overflows). The writer owns closing the socket:
// that is what unblocks the reader of a dropped or drained connection.
func (c *conn) writeLoop(bw *bufio.Writer, timeout time.Duration) {
	enc := json.NewEncoder(bw)
	broken := false
	for m := range c.out {
		if broken {
			continue
		}
		c.nc.SetWriteDeadline(time.Now().Add(timeout))
		if enc.Encode(m) != nil {
			broken = true
			continue
		}
		// Flush when the queue is momentarily empty: consecutive
		// messages batch into one write, the last never lingers.
		if len(c.out) == 0 && bw.Flush() != nil {
			broken = true
		}
	}
	if !broken {
		c.nc.SetWriteDeadline(time.Now().Add(timeout))
		bw.Flush() // the conn is closing either way
	}
	c.nc.Close()
}

// Drain stops the server gracefully: close the listeners, let the
// dispatcher finish every submission already queued, notify every
// connection with a "drain" message, flush and close the outbound
// queues, then close the controller. It blocks until the dispatcher
// has exited and returns the first controller error (a departure or
// re-split failure), if any. Safe to call more than once.
func (s *Server) Drain() error {
	s.lmu.Lock()
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	s.lmu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.drainErr
}

// Done is closed when the dispatcher has exited (after Drain).
func (s *Server) Done() <-chan struct{} { return s.done }

// Residents returns the resident flow specs in admission order. Only
// valid after Drain has returned (the dispatcher owns this state while
// running).
func (s *Server) Residents() []*network.FlowSpec {
	<-s.done
	return s.residents
}
