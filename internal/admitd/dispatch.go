package admitd

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"gmfnet/internal/admission"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// dispatch is the daemon's single run loop: it owns the controller and
// every connection, subscription and closure-book structure, and
// serializes wire submissions into the controller in the order they
// arrive on s.ch. That ordering invariant is the daemon's determinism
// guarantee — one client replaying a trace sees exactly the decisions
// an in-process replay of the same op sequence produces, byte for byte.
func (s *Server) dispatch() {
	defer close(s.done)
	stopCh := s.stop
	draining := false
	drain := func() {
		stopCh = nil
		draining = true
		// Flush in-flight work: every submission already queued is
		// decided before anyone is told about the drain.
		for flushed := false; !flushed; {
			select {
			case m := <-s.ch:
				s.handle(m, false)
			default:
				flushed = true
			}
		}
		for _, c := range append([]*conn(nil), s.order...) {
			s.push(c, Msg{Kind: KindDrain})
			s.unregister(c)
		}
	}
	for !(draining && len(s.conns) == 0) {
		select {
		case m := <-s.ch:
			s.handle(m, draining)
			continue
		case <-stopCh:
			drain()
			continue
		default:
		}
		// Idle: yield once so the writers just woken put their verdicts
		// on the wire first, then apply the departures the controller
		// queued, so the next op does not wait for them.
		runtime.Gosched()
		s.keepErr(s.ctl.Flush())
		select {
		case m := <-s.ch:
			s.handle(m, draining)
		case <-stopCh:
			drain()
		}
	}
	s.keepErr(s.ctl.Close())
	s.residents = s.book.residents()
	// Readers may still be blocked sending to s.ch (their sockets close
	// asynchronously, via the writers); keep the channel drained until
	// the last one has exited, closing any connection that raced the
	// drain through the accept loop.
	go func() {
		s.readers.Wait()
		close(s.ch)
	}()
	for m := range s.ch {
		if m.reg {
			close(m.c.out)
		}
	}
}

// keepErr records the first controller error for Drain to return.
func (s *Server) keepErr(err error) {
	if err != nil && s.drainErr == nil {
		s.drainErr = err
	}
}

// handle processes one dispatcher message.
func (s *Server) handle(m dmsg, draining bool) {
	switch {
	case m.reg:
		if draining {
			// Raced the drain through the accept loop: turn it away.
			m.c.out <- Msg{Kind: KindDrain}
			close(m.c.out)
			return
		}
		s.conns[m.c] = true
		s.order = append(s.order, m.c)
		s.totalConns++
	case m.unreg:
		s.unregister(m.c)
	default:
		if !s.conns[m.c] {
			return // ops queued behind a drop
		}
		m.c.ops++
		s.ops++
		s.handleOp(m.c, m.op)
	}
}

// unregister removes a connection from the dispatcher's books and
// closes its outbound queue; the writer flushes what is queued and
// closes the socket, which in turn unblocks the reader. Idempotent.
func (s *Server) unregister(c *conn) {
	if !s.conns[c] {
		return
	}
	delete(s.conns, c)
	for i, oc := range s.order {
		if oc == c {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	for name := range c.subs {
		if set := s.subs[name]; set != nil {
			delete(set, c)
			if len(set) == 0 {
				delete(s.subs, name)
			}
		}
	}
	close(c.out)
}

// drop disconnects a connection whose outbound queue overflowed: the
// peer has stopped reading, and the fold must never wait for it. The
// socket is closed immediately so both its goroutines unwind without
// waiting out a write timeout.
func (s *Server) drop(c *conn) {
	if !s.conns[c] {
		return
	}
	s.dropped++
	s.unregister(c)
	c.nc.Close()
}

// push enqueues one message without ever blocking: the queue is
// bounded, and overflow means the peer is too slow to keep — it is
// dropped on the spot. Messages to already-unregistered connections
// are discarded.
func (s *Server) push(c *conn, m Msg) {
	if !s.conns[c] {
		return
	}
	select {
	case c.out <- m:
		if m.Kind == KindEvent {
			c.events++
			s.events++
		} else if m.Kind != KindDrain {
			c.verdicts++
			s.verdicts++
		}
	default:
		s.drop(c)
	}
}

func errMsg(id int64, err error) Msg {
	return Msg{Kind: KindError, ID: id, Err: err.Error()}
}

func verdictMsg(id int64, d admission.Decision) Msg {
	v := VerdictReject
	if d.Admitted {
		v = VerdictAdmit
	}
	return Msg{Kind: KindVerdict, ID: id, Flow: d.FlowName, Verdict: v}
}

// handleOp decides one wire operation. Subscription events caused by
// the op are fanned out by the controller's notify hook (onFold) inside
// the controller call, *before* the op's verdict is enqueued, so a
// client reading its own connection in order always sees cause before
// acknowledgement.
func (s *Server) handleOp(c *conn, op *workload.Op) {
	switch op.Op {
	case "add":
		spec, err := op.Spec(s.topo)
		if err != nil {
			s.push(c, errMsg(op.ID, err))
			return
		}
		d, err := s.ctl.Request(spec)
		if err != nil {
			s.push(c, errMsg(op.ID, err))
			return
		}
		s.push(c, verdictMsg(op.ID, d))
	case "batch":
		if len(op.Flows) == 0 {
			// No member means no verdict would answer the op.
			s.push(c, errMsg(op.ID, fmt.Errorf("admitd: batch needs at least one flow")))
			return
		}
		specs := make([]*network.FlowSpec, len(op.Flows))
		for i := range op.Flows {
			if op.Flows[i].Op != "add" {
				s.push(c, errMsg(op.ID, fmt.Errorf("admitd: batch member %d is %q, want \"add\"", i, op.Flows[i].Op)))
				return
			}
			spec, err := op.Flows[i].Spec(s.topo)
			if err != nil {
				s.push(c, errMsg(op.ID, err))
				return
			}
			specs[i] = spec
		}
		ds, err := s.ctl.RequestBatch(specs)
		if err != nil {
			s.push(c, errMsg(op.ID, err))
			return
		}
		for _, d := range ds {
			s.push(c, verdictMsg(op.ID, d))
		}
	case "del":
		ok, err := s.ctl.Release(op.Name)
		if err != nil {
			s.push(c, errMsg(op.ID, err))
			return
		}
		v := VerdictMiss
		if ok {
			v = VerdictOK
		}
		s.push(c, Msg{Kind: KindVerdict, ID: op.ID, Flow: op.Name, Verdict: v})
	case "sub":
		if op.Name == "" {
			s.push(c, errMsg(op.ID, fmt.Errorf("admitd: sub needs a flow name")))
			return
		}
		set := s.subs[op.Name]
		if set == nil {
			set = make(map[*conn]bool)
			s.subs[op.Name] = set
		}
		set[c] = true
		c.subs[op.Name] = true
		s.push(c, Msg{Kind: KindVerdict, ID: op.ID, Flow: op.Name, Verdict: VerdictSub})
	case "unsub":
		if set := s.subs[op.Name]; set != nil {
			delete(set, c)
			if len(set) == 0 {
				delete(s.subs, op.Name)
			}
		}
		delete(c.subs, op.Name)
		s.push(c, Msg{Kind: KindVerdict, ID: op.ID, Flow: op.Name, Verdict: VerdictUnsub})
	case "stats":
		s.push(c, Msg{Kind: KindStats, ID: op.ID, Stats: s.stats()})
	default:
		s.push(c, errMsg(op.ID, fmt.Errorf("admitd: unknown op %q", op.Op)))
	}
}

// onFold is the controller's notify hook: it enters one fold into the
// closure book and pushes closure deltas to subscribers of affected
// flows. The book holds exactly the resident flow set (the same specs
// the controller folded, by pointer — Release folds the exact pointer
// that was admitted, so a departure is unambiguous even under duplicate
// names). While nobody is subscribed to anything a fold only updates
// the book's indices, O(route length); otherwise it also walks the one
// closure the fold touched.
func (s *Server) onFold(ev admission.FoldEvent) {
	switch ev.Kind {
	case admission.FoldAdmitted:
		r := s.book.add(ev.Spec)
		s.notify(r, EventAdmitted, s.affected(r))
	case admission.FoldReleased:
		r := s.book.bySpec[ev.Spec]
		if r == nil {
			return // unreachable: every resident was entered on fold
		}
		// Affected flows are the ones that shared the closure *before*
		// the departure; their populations are reported after it (the
		// closure may have split).
		owed := s.affected(r)
		s.book.remove(r)
		s.notify(r, EventReleased, owed)
	case admission.FoldRejected:
		// Never entered any closure; the requester already has the
		// verdict, nobody's headroom changed.
	}
}

// affected walks r's interference closure and returns the members an
// event is owed for: one per distinct subscribed name (the earliest
// admitted, when a name repeats inside the closure), in admission order
// — a deterministic fan-out order for the event stream. Only these are
// sorted, not the closure. While the daemon has no subscription at all
// nobody is owed anything and the walk is skipped. The slice is
// scratch, valid until the next call.
func (s *Server) affected(r *resident) []*resident {
	if len(s.subs) == 0 {
		return nil
	}
	owed := s.owed[:0]
	for _, m := range s.book.closure(r) {
		if len(s.subs[m.spec.Flow.Name]) > 0 && s.book.firstOfName(m) {
			owed = append(owed, m)
		}
	}
	slices.SortFunc(owed, bySeq)
	s.owed = owed
	return owed
}

// notify sends exactly one event per affected subscribed flow name:
// peer was admitted into (or departed) that flow's closure, and the
// closure of the first resident by that name now holds Residents flows
// — 0 when no resident by that name remains (the flow itself departed).
// The book labels each closure it is asked about once per fold, so when
// a departure has split the old closure, the events to the survivors of
// one half cost one walk of that half between them.
func (s *Server) notify(peer *resident, event string, owed []*resident) {
	for _, m := range owed {
		name := m.spec.Flow.Name
		msg := Msg{
			Kind:  KindEvent,
			Flow:  name,
			Peer:  peer.spec.Flow.Name,
			Event: event,
		}
		if named := s.book.byName[name]; len(named) > 0 {
			msg.Residents = s.book.population(named[0])
		}
		for c := range s.subs[name] {
			s.push(c, msg)
		}
	}
}

// stats assembles the counters snapshot; the controller and everything
// else it reads are dispatcher-owned.
func (s *Server) stats() *Stats {
	st := &Stats{
		Admitted:   s.ctl.Admitted(),
		Rejected:   s.ctl.Rejected(),
		Released:   s.ctl.Released(),
		Resident:   s.ctl.NumResidents(),
		Conns:      len(s.conns),
		TotalConns: s.totalConns,
		Dropped:    s.dropped,
		Ops:        s.ops,
		Verdicts:   s.verdicts,
		Events:     s.events,
	}
	for _, set := range s.subs {
		st.Subs += len(set)
	}
	for _, c := range s.order {
		st.PerConn = append(st.PerConn, ConnStats{
			ID:       c.id,
			Addr:     c.nc.RemoteAddr().String(),
			Ops:      c.ops,
			Verdicts: c.verdicts,
			Events:   c.events,
			Subs:     len(c.subs),
			Queue:    len(c.out),
		})
	}
	sort.Slice(st.PerConn, func(i, j int) bool { return st.PerConn[i].ID < st.PerConn[j].ID })
	return st
}
