// Package admitd turns the closure-sharded admission controller into a
// long-running network service: gmfnet-admitd serves concurrent
// admission streams over TCP or a unix socket behind a JSON-lines wire
// protocol (the workload.Op trace schema plus a versioned hello), and
// *pushes* verdict deltas to subscribers — a flow admitted into your
// interference closure changes your headroom, and tenants hear about
// it without polling.
//
// The shape is lock-owns-state with per-peer outbound queues:
//
//   - one mutex (Server.mu) guards the controller and all connection
//     and subscription state;
//   - every connection's reader goroutine frames its lines (MaxLine
//     bytes at most), decodes each op and decides it under Server.mu,
//     calling the ShardedController in-line: one op at a time, in lock
//     order, so one connection's decisions are byte-identical to an
//     in-process replay of its op sequence (the golden daemon tests pin
//     this over the wire). The reader queues its answers and writes
//     them itself, in one write, once no complete line is left to read
//     (then it flushes the departures the controller queued, off the
//     next op's latency) or Queue answers are waiting;
//   - a message for another connection (an event its subscriber is
//     owed, the drain notice) goes into that connection's bounded queue
//     and wakes its writer goroutine; a subscriber that stops reading
//     overflows the queue and is disconnected, never blocking a
//     decision. A per-connection write mutex keeps the reader's and the
//     writer's writes in queue order;
//   - the controller owns the resident registry (network.Residents);
//     the daemon only reads it. The controller's notification hook
//     (SetNotify) runs inside the call that caused the fold and works
//     out from the registry which subscribers are owed an event: one
//     per subscribed name in the fold's interference closure — for a
//     departure, the closure as it was before, with populations as
//     they are after — all queued before the op's verdict. A fold costs
//     the daemon nothing while nobody is subscribed, and one walk of
//     the touched closure when somebody is.
//
// Drain (SIGTERM in the daemon, Server.Drain here) is graceful: stop
// accepting, queue a "drain" message behind the answers to every op
// already decided, unregister every connection and close the controller.
package admitd

import (
	"bufio"
	"bytes"
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
	// events — is disconnected rather than ever blocking a decision.
	// Default 128.
	Queue int
	// WriteTimeout bounds each wire write, so a stalled peer cannot
	// pin a goroutine past it. Default 5s.
	WriteTimeout time.Duration
	// Core configures the controller's engines (analysis mode and caps).
	Core core.Config
}

// Server is one admission daemon: a ShardedController, which owns the
// resident registry, and the connections whose readers decide their ops
// into it under one mutex.
type Server struct {
	cfg  Config
	topo *network.Topology

	once   sync.Once
	done   chan struct{}
	connID atomic.Int64

	// mu guards everything below, the controller included: a reader
	// holds it while it decides one of its connection's ops.
	mu        sync.Mutex
	listeners []net.Listener
	ctl       *admission.ShardedController
	owed      []*network.Resident // affected's scratch
	departed  *network.Resident   // claimed by the Release in progress
	// cur is the connection whose op is being decided: messages to it
	// are written by its own reader, so they neither overflow its
	// queue nor wake its writer.
	cur        *conn
	conns      map[*conn]bool
	order      []*conn // live conns in accept order, for stable stats
	subs       map[string]map[*conn]bool
	draining   bool
	totalConns int64
	dropped    int
	badLines   int64
	ops        int64
	verdicts   int64
	events     int64
	drainErr   error // first controller error
}

// conn is one accepted connection.
type conn struct {
	id int64
	nc net.Conn
	// kick wakes the writer goroutine after a push from another
	// connection's op; unregister closes it.
	kick chan struct{}

	// Guarded by Server.mu: the outbound queue, in decision order, and
	// the connection's subscriptions and counters.
	q                     []Msg
	subs                  map[string]bool
	ops, verdicts, events int64

	// wmu serialises the reader's and the writer's socket writes and is
	// held from taking the queue until it is written, so messages reach
	// the wire in queue order. It guards the fields below.
	wmu   sync.Mutex
	spare []Msg
	buf   bytes.Buffer
	enc   *json.Encoder
}

// New builds the served topology and the sharded controller (in
// counters-only retention — a daemon never re-reads its decision log,
// so memory stays flat at any request volume). It starts no goroutine.
// Call Serve with one or more listeners, then Drain.
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
	s := &Server{
		cfg:   cfg,
		topo:  topo,
		ctl:   ctl,
		done:  make(chan struct{}),
		conns: make(map[*conn]bool),
		subs:  make(map[string]map[*conn]bool),
	}
	ctl.SetNotify(s.onFold)
	return s, nil
}

// Topo returns the served topology spec (what hellos must match).
func (s *Server) Topo() workload.TopoSpec { return s.cfg.Topo }

// Serve starts accepting connections on l. It may be called more than
// once (the daemon listens on TCP and a unix socket at the same time);
// all listeners are closed by Drain. A listener handed to a draining
// server is closed immediately.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	go s.acceptLoop(l)
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed by Drain
		}
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

var errLineTooLong = fmt.Errorf("admitd: line longer than %d bytes", MaxLine)

// readLine returns the next line, newline included, or what precedes an
// error. A line longer than the read buffer is assembled in *long, up
// to MaxLine bytes. The line is valid until the next call.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull && len(*long) <= MaxLine {
		line, err = br.ReadSlice('\n')
		*long = append(*long, line...)
	}
	if len(*long) > MaxLine {
		return nil, errLineTooLong
	}
	return *long, err
}

// serveConn is the connection's reader goroutine: handshake, then one
// op decided per line until the peer hangs up, sends a line that is too
// long or malformed (answered with one error message), or the socket is
// closed underneath it, which is how drops and drain end a read loop.
// Until c is registered nobody else touches it.
func (s *Server) serveConn(nc net.Conn) {
	br := bufio.NewReader(nc)
	var long []byte
	c := &conn{id: s.connID.Add(1), nc: nc, kick: make(chan struct{}, 1), subs: make(map[string]bool)}
	c.enc = json.NewEncoder(&c.buf)
	nc.SetReadDeadline(time.Now().Add(helloTimeout))
	var h Hello
	line, err := readLine(br, &long)
	if err == nil {
		err = json.Unmarshal(line, &h)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("admitd: hello: %w", err)
	case h.V != ProtocolVersion:
		err = fmt.Errorf("admitd: protocol version %d, want %d", h.V, ProtocolVersion)
	case h.Topo != (workload.TopoSpec{}) && canonTopo(h.Topo) != canonTopo(s.cfg.Topo):
		err = fmt.Errorf("admitd: topology mismatch: daemon serves %+v", s.cfg.Topo)
	}
	if err != nil {
		c.q = append(c.q, errMsg(0, err))
		s.flush(c) // best effort on a dying connection; the close is the message
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	topo := s.cfg.Topo
	c.q = append(c.q, Msg{Kind: KindHello, V: ProtocolVersion, Topo: &topo})
	registered := s.register(c)
	s.flush(c)
	if !registered {
		nc.Close()
		return
	}
	go s.writeLoop(c)

	var perr error // a framing or decoding fault, answered before the close
	for {
		line, err := readLine(br, &long)
		if err == errLineTooLong {
			perr = err
			break
		}
		queued := 0
		if len(bytes.TrimSpace(line)) > 0 {
			var op workload.Op
			if uerr := json.Unmarshal(line, &op); uerr != nil {
				perr = fmt.Errorf("admitd: malformed op: %w", uerr)
				break
			}
			var ok bool
			if queued, ok = s.decide(c, &op); !ok {
				break
			}
		}
		if err != nil {
			break
		}
		// Write when no complete line is left to read (the next read
		// would block), then apply the departures the controller
		// queued; or write once Queue answers are waiting.
		if buf, _ := br.Peek(br.Buffered()); bytes.IndexByte(buf, '\n') < 0 {
			s.flush(c)
			s.mu.Lock()
			if !s.draining { // a drained controller is closed
				s.keepErr(s.ctl.Flush())
			}
			s.mu.Unlock()
		} else if queued >= s.cfg.Queue {
			s.flush(c)
		}
	}
	s.mu.Lock()
	if perr != nil {
		s.badLines++
		s.push(c, Msg{Kind: KindError, Err: perr.Error()})
	}
	s.unregister(c)
	s.mu.Unlock()
}

// register enters c into the server's books. Once draining it queues
// the drain notice instead — c raced the drain through the accept loop
// — and reports false.
func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		c.q = append(c.q, Msg{Kind: KindDrain})
		return false
	}
	s.conns[c] = true
	s.order = append(s.order, c)
	s.totalConns++
	return true
}

// decide decides one op of c's and reports how many messages c now
// has queued; false when c is no longer registered (dropped or
// drained), in which case nothing was decided.
func (s *Server) decide(c *conn, op *workload.Op) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.conns[c] {
		return 0, false
	}
	c.ops++
	s.ops++
	s.cur = c
	s.handleOp(c, op)
	s.cur = nil
	return len(c.q), true
}

// flush writes everything queued for c to its socket in one write.
// Every write rides a deadline, so a stalled peer costs at most one
// timeout; a failed write closes the socket, which ends the reader.
func (s *Server) flush(c *conn) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	s.mu.Lock()
	q := c.q
	c.q = c.spare[:0]
	s.mu.Unlock()
	c.spare = q
	if len(q) == 0 {
		return
	}
	for i := range q {
		c.enc.Encode(&q[i])
	}
	clear(q)
	c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := c.nc.Write(c.buf.Bytes()); err != nil {
		c.nc.Close()
	}
	c.buf.Reset()
}

// writeLoop is the connection's writer goroutine: it writes what other
// connections' ops pushed. Once the connection is unregistered it
// flushes what is left and closes the socket, which is what unblocks
// the reader of a dropped or drained connection.
func (s *Server) writeLoop(c *conn) {
	for range c.kick {
		s.flush(c)
	}
	s.flush(c)
	c.nc.Close()
}

// Drain stops the server gracefully: under Server.mu, close the
// listeners, queue a "drain" message to every connection behind the
// answers to the ops already decided, unregister it and close the
// controller; later ops are not decided. It returns the first
// controller error (a departure or re-split failure), if any. Safe to
// call more than once.
func (s *Server) Drain() error {
	s.once.Do(func() {
		s.mu.Lock()
		s.draining = true
		for _, l := range s.listeners {
			l.Close()
		}
		for _, c := range append([]*conn(nil), s.order...) {
			s.push(c, Msg{Kind: KindDrain})
			s.unregister(c)
		}
		s.keepErr(s.ctl.Close())
		s.mu.Unlock()
		close(s.done)
	})
	return s.drainErr
}

// Done is closed once Drain has closed the controller.
func (s *Server) Done() <-chan struct{} { return s.done }

// Residents returns the resident flow specs in admission order, read
// from the controller's registry once Drain has run (it blocks until
// then); a drained server decides nothing more, so the list is final.
func (s *Server) Residents() []*network.FlowSpec {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.Residents().Flows()
}
