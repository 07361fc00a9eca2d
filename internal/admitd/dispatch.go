package admitd

import (
	"fmt"
	"slices"
	"sort"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// keepErr records the first controller error for Drain to return.
func (s *Server) keepErr(err error) {
	if err != nil && s.drainErr == nil {
		s.drainErr = err
	}
}

// unregister removes a connection from the server's books and closes
// its kick channel; the writer flushes what is queued and closes the
// socket, which in turn unblocks the reader. Idempotent.
func (s *Server) unregister(c *conn) {
	if !s.conns[c] {
		return
	}
	delete(s.conns, c)
	s.order = slices.DeleteFunc(s.order, func(oc *conn) bool { return oc == c })
	for name := range c.subs {
		s.unsub(c, name)
	}
	close(c.kick)
}

// unsub drops c's subscription to name, if any.
func (s *Server) unsub(c *conn, name string) {
	delete(s.subs[name], c)
	if len(s.subs[name]) == 0 {
		delete(s.subs, name)
	}
	delete(c.subs, name)
}

// drop disconnects a connection whose outbound queue overflowed: the
// peer has stopped reading, and the fold must never wait for it. The
// socket is closed immediately so both its goroutines unwind without
// waiting out a write timeout.
func (s *Server) drop(c *conn) {
	s.dropped++
	s.unregister(c)
	c.nc.Close()
}

// push queues one message without ever blocking. A message to the
// connection whose op is being decided is written by its reader; any
// other wakes the connection's writer, and overflowing the bounded
// queue means the peer is too slow to keep — it is dropped on the
// spot. Messages to already-unregistered connections are discarded.
func (s *Server) push(c *conn, m Msg) {
	if !s.conns[c] {
		return
	}
	if c != s.cur {
		if len(c.q) >= s.cfg.Queue {
			s.drop(c)
			return
		}
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	c.q = append(c.q, m)
	if m.Kind == KindEvent {
		c.events++
		s.events++
	} else if m.Kind != KindDrain {
		c.verdicts++
		s.verdicts++
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
// the op are worked out by the controller's notify hook (onFold) inside
// the controller call and pushed *before* the op's verdict is enqueued,
// so a client reading its own connection in order always sees cause
// before acknowledgement.
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
		ok, err := s.release(op.Name)
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
		s.unsub(c, op.Name)
		s.push(c, Msg{Kind: KindVerdict, ID: op.ID, Flow: op.Name, Verdict: VerdictUnsub})
	case "stats":
		s.push(c, Msg{Kind: KindStats, ID: op.ID, Stats: s.stats()})
	default:
		s.push(c, errMsg(op.ID, fmt.Errorf("admitd: unknown op %q", op.Op)))
	}
}

// onFold is the controller's notify hook: it works out from the
// registry who a fold owes an event (a rejection owes nobody). An
// admission's events go out at once. A departing flow is still
// registered: the hook walks the closure as it was *before* the
// departure, and release sends the events once the flow is out,
// reporting populations *after* it.
func (s *Server) onFold(ev admission.FoldEvent) {
	switch ev.Kind {
	case admission.FoldAdmitted:
		named := s.ctl.Residents().Named(ev.Spec.Flow.Name)
		r := named[len(named)-1]
		s.notify(r, EventAdmitted, s.affected(r))
	case admission.FoldReleased:
		s.departed = s.ctl.Residents().Named(ev.Spec.Flow.Name)[0]
		s.affected(s.departed)
	}
}

// release claims the first resident by name and sends the events its
// departure's hook worked out, before the caller queues the verdict.
func (s *Server) release(name string) (bool, error) {
	ok, err := s.ctl.Release(name)
	if s.departed != nil {
		s.notify(s.departed, EventReleased, s.owed)
		s.departed = nil
	}
	return ok, err
}

// affected walks r's interference closure and returns the members an
// event is owed for: one per distinct subscribed name (the earliest
// admitted, when a name repeats inside the closure), in admission order
// — a deterministic fan-out order for the event stream. Only these are
// sorted, not the closure. While the daemon has no subscription at all
// nobody is owed anything and the walk is skipped. The result is kept
// in s.owed, scratch valid until the next call.
func (s *Server) affected(r *core.Resident) []*core.Resident {
	owed := s.owed[:0]
	if len(s.subs) > 0 {
		res := s.ctl.Residents()
		for _, m := range res.Closure(r) {
			if len(s.subs[m.Spec().Flow.Name]) > 0 && res.FirstOfName(m) {
				owed = append(owed, m)
			}
		}
		slices.SortFunc(owed, core.AdmissionOrder)
	}
	s.owed = owed
	return owed
}

// notify sends exactly one event per affected subscribed flow name:
// peer was admitted into (or departed) that flow's closure, and the
// closure of the first resident by that name now holds Residents flows
// — 0 when no resident by that name remains (the flow itself departed).
// The registry labels each closure it is asked about once per change,
// so when a departure has split the old closure, the events to the
// survivors of one half cost one walk of that half between them.
func (s *Server) notify(peer *core.Resident, event string, owed []*core.Resident) {
	res := s.ctl.Residents()
	for _, m := range owed {
		name := m.Spec().Flow.Name
		msg := Msg{
			Kind:  KindEvent,
			Flow:  name,
			Peer:  peer.Spec().Flow.Name,
			Event: event,
		}
		if named := res.Named(name); len(named) > 0 {
			msg.Residents = res.Population(named[0])
		}
		for c := range s.subs[name] {
			s.push(c, msg)
		}
	}
}

// stats assembles the counters snapshot; the caller holds Server.mu.
func (s *Server) stats() *Stats {
	st := &Stats{
		Admitted:   s.ctl.Admitted(),
		Rejected:   s.ctl.Rejected(),
		Released:   s.ctl.Released(),
		Resident:   s.ctl.NumResidents(),
		Conns:      len(s.conns),
		TotalConns: s.totalConns,
		Dropped:    s.dropped,
		BadLines:   s.badLines,
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
			Queue:    len(c.q),
		})
	}
	sort.Slice(st.PerConn, func(i, j int) bool { return st.PerConn[i].ID < st.PerConn[j].ID })
	return st
}
