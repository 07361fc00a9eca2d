package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"gmfnet/internal/workload"
)

// The benchmark is an external client of wire protocol v1, so it
// declares the protocol's JSON shapes itself instead of importing the
// daemon's: a change to the daemon's structs that alters the bytes on
// the wire must fail here, not be followed silently.

const protocolVersion = 1

type wireTopo struct {
	Kind     string `json:"kind,omitempty"`
	Switches int    `json:"switches"`
	Hosts    int    `json:"hosts"`
	Fanout   int    `json:"fanout,omitempty"`
}

type wireHello struct {
	V    int      `json:"v"`
	Topo wireTopo `json:"topo"`
}

// wireOp is one client-to-server line.
type wireOp struct {
	Op         string `json:"op"`
	Name       string `json:"name"`
	ID         int64  `json:"id,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Src        string `json:"src,omitempty"`
	Dst        string `json:"dst,omitempty"`
	Prio       int    `json:"prio,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`
	PeriodPS   int64  `json:"period_ps,omitempty"`
	DeadlinePS int64  `json:"deadline_ps,omitempty"`
	RTP        bool   `json:"rtp,omitempty"`
}

// wireStats is the part of the stats snapshot the referee checks.
type wireStats struct {
	Admitted int   `json:"admitted"`
	Rejected int   `json:"rejected"`
	Released int   `json:"released"`
	Resident int   `json:"resident"`
	Dropped  int   `json:"dropped"`
	Events   int64 `json:"events"`
}

// wireMsg is one server-to-client line.
type wireMsg struct {
	Kind      string     `json:"kind"`
	V         int        `json:"v,omitempty"`
	ID        int64      `json:"id,omitempty"`
	Flow      string     `json:"flow,omitempty"`
	Verdict   string     `json:"verdict,omitempty"`
	Event     string     `json:"event,omitempty"`
	Peer      string     `json:"peer,omitempty"`
	Residents int        `json:"residents,omitempty"`
	Err       string     `json:"err,omitempty"`
	Stats     *wireStats `json:"stats,omitempty"`
}

func toWire(op *workload.Op, id int64) wireOp {
	return wireOp{
		Op: op.Op, Name: op.Name, ID: id,
		Kind: op.Kind, Src: op.Src, Dst: op.Dst, Prio: op.Prio,
		Bytes: op.Bytes, PeriodPS: op.PeriodPS, DeadlinePS: op.DeadlinePS, RTP: op.RTP,
	}
}

// encodeOps renders the op sequence as wire lines ahead of time, so the
// timed loops write bytes and do no encoding. Op i carries ID i+1.
func encodeOps(ops []workload.Op) ([][]byte, error) {
	lines := make([][]byte, len(ops))
	for i := range ops {
		b, err := json.Marshal(toWire(&ops[i], int64(i+1)))
		if err != nil {
			return nil, err
		}
		lines[i] = append(b, '\n')
	}
	return lines, nil
}

// ioTimeout bounds every socket read and write: a daemon that stops
// answering is a counted failure, never a hang.
const ioTimeout = 20 * time.Second

// wireConn is the benchmark's one connection to the daemon.
type wireConn struct {
	nc net.Conn
	br *bufio.Reader
	// events counts the pushed subscription events read so far.
	events int64
}

func dialDaemon(sock string, topo workload.TopoSpec) (*wireConn, error) {
	nc, err := net.DialTimeout("unix", sock, ioTimeout)
	if err != nil {
		return nil, err
	}
	c := &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	hello, err := json.Marshal(wireHello{V: protocolVersion,
		Topo: wireTopo{Kind: topo.Kind, Switches: topo.Switches, Hosts: topo.Hosts, Fanout: topo.Fanout}})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.write(append(hello, '\n')); err != nil {
		nc.Close()
		return nil, err
	}
	ack, err := c.read()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	if ack.Kind != "hello" || ack.V != protocolVersion {
		nc.Close()
		return nil, fmt.Errorf("hello refused: kind %q v%d: %s", ack.Kind, ack.V, ack.Err)
	}
	return c, nil
}

func (c *wireConn) write(line []byte) error {
	c.nc.SetWriteDeadline(time.Now().Add(ioTimeout))
	_, err := c.nc.Write(line)
	return err
}

// read returns the next server line.
func (c *wireConn) read() (wireMsg, error) {
	c.nc.SetReadDeadline(time.Now().Add(ioTimeout))
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return wireMsg{}, err
	}
	var m wireMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return wireMsg{}, fmt.Errorf("bad server line %q: %w", line, err)
	}
	return m, nil
}

// reply reads up to the reply to op id, counting the events pushed
// before it. The daemon answers one connection's ops in order, so any
// other ID is a protocol failure.
func (c *wireConn) reply(id int64) (wireMsg, error) {
	for {
		m, err := c.read()
		if err != nil {
			return wireMsg{}, err
		}
		switch m.Kind {
		case "event":
			c.events++
		case "verdict", "stats", "error":
			if m.ID != id {
				return wireMsg{}, fmt.Errorf("reply to op %d while waiting for op %d", m.ID, id)
			}
			return m, nil
		default:
			return wireMsg{}, fmt.Errorf("unexpected %q message: %s", m.Kind, m.Err)
		}
	}
}

// verdictOf flattens a reply to the string the referee compares.
func verdictOf(m wireMsg) string {
	if m.Kind == "error" {
		return "error"
	}
	return m.Verdict
}

// drive replays lines[from:to] as a closed loop with at most win ops in
// flight, in order: a sender goroutine writes, this goroutine reads.
// got[i] receives op i's verdict; rtt[i], when rtt is non-nil, the time
// from just before the op's write to its reply having been read; each,
// when non-nil, is called after op i has been answered. It returns the
// number of ops answered and, if the connection failed before all were,
// the cause.
func (c *wireConn) drive(lines [][]byte, from, to, win int, got []string, rtt []time.Duration, each func(i int)) (int, error) {
	// slots bounds the ops in flight; stamps hands each op's send time
	// to the reader in order. Both hold at most win entries.
	slots := make(chan struct{}, win)
	stamps := make(chan time.Time, win)
	stop := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		for i := from; i < to; i++ {
			select {
			case slots <- struct{}{}:
			case <-stop:
				sendErr <- nil
				return
			}
			stamps <- time.Now()
			if err := c.write(lines[i]); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	done := from
	var err error
	for ; done < to; done++ {
		var m wireMsg
		if m, err = c.reply(int64(done + 1)); err != nil {
			break
		}
		now := time.Now()
		sent := <-stamps
		if rtt != nil {
			rtt[done] = now.Sub(sent)
		}
		got[done] = verdictOf(m)
		<-slots
		if each != nil {
			each(done)
		}
	}
	close(stop)
	if werr := <-sendErr; err == nil {
		err = werr
	}
	if err != nil {
		return done - from, fmt.Errorf("connection lost after %d of %d ops: %w", done-from, to-from, err)
	}
	return done - from, nil
}

// roundTrip sends one op outside the trace and returns its reply.
func (c *wireConn) roundTrip(op wireOp) (wireMsg, error) {
	b, err := json.Marshal(op)
	if err != nil {
		return wireMsg{}, err
	}
	if err := c.write(append(b, '\n')); err != nil {
		return wireMsg{}, err
	}
	return c.reply(op.ID)
}
