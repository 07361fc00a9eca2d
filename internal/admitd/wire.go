package admitd

import "gmfnet/internal/workload"

// The wire protocol is JSON lines over a byte stream (TCP or unix
// socket), one object per line in each direction.
//
// The client speaks first: a versioned Hello carrying the TopoSpec it
// believes the daemon serves. A zero TopoSpec is an observer hello —
// accepted unconditionally (the ack returns the daemon's spec), the
// handshake -status tooling uses. A non-zero spec must equal the
// daemon's exactly; a mismatch or version skew gets a "error" message
// and the connection is closed.
//
// After the ack the client sends workload.Op values — the same schema
// request traces are recorded in, extended with a correlation ID and
// the wire-only op kinds:
//
//	op       semantics                          reply
//	add      admit one flow                     1 verdict: admit|reject
//	batch    admit Flows as one RequestBatch    len(Flows) verdicts, in order
//	                                            (an error when Flows is empty)
//	del      release the named flow             1 verdict: ok|miss
//	sub      subscribe to the named flow        1 verdict: sub
//	unsub    drop the subscription              1 verdict: unsub
//	stats    counters snapshot                  1 stats message
//
// Every server line is a Msg. Verdicts carry the triggering op's ID;
// events are unsolicited and carry none. For one connection the server
// enqueues the events an op caused *before* the op's verdict, so a
// client that reads in order sees cause before acknowledgement.
//
// A client line longer than MaxLine, or one that does not decode, is
// answered with one "error" message carrying no ID, and the connection
// is closed; Stats.BadLines counts them.

// ProtocolVersion is the wire protocol version spoken by this package;
// Hello.V must match exactly.
const ProtocolVersion = 1

// MaxLine bounds one client line in bytes, newline included.
const MaxLine = 1 << 20

// Hello is the first line a client sends.
type Hello struct {
	V    int               `json:"v"`
	Topo workload.TopoSpec `json:"topo"`
}

// Msg kinds.
const (
	KindHello   = "hello"   // handshake ack; V and Topo are set
	KindVerdict = "verdict" // reply to add/batch/del/sub/unsub
	KindEvent   = "event"   // push: a subscribed flow's closure changed
	KindStats   = "stats"   // reply to stats; Stats is set
	KindError   = "error"   // op or protocol failure
	KindDrain   = "drain"   // the daemon is draining; no more verdicts follow
)

// Verdict values.
const (
	VerdictAdmit  = "admit"
	VerdictReject = "reject"
	VerdictOK     = "ok"   // del: a resident flow was released
	VerdictMiss   = "miss" // del: no resident flow had that name
	VerdictSub    = "sub"
	VerdictUnsub  = "unsub"
)

// Event values.
const (
	EventAdmitted = "admitted" // Peer was admitted into Flow's closure
	EventReleased = "released" // Peer departed Flow's closure
)

// Msg is one server-to-client line.
type Msg struct {
	Kind string `json:"kind"`
	// V and Topo are set on the hello ack: the protocol version and the
	// daemon's authoritative TopoSpec.
	V    int                `json:"v,omitempty"`
	Topo *workload.TopoSpec `json:"topo,omitempty"`
	// ID echoes the triggering op's correlation ID on verdicts, stats
	// and op errors; events and protocol errors carry none.
	ID int64 `json:"id,omitempty"`
	// Flow names the decided flow (verdicts) or the subscribed flow
	// whose closure changed (events).
	Flow    string `json:"flow,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	// Event fields: Peer is the flow whose admission or departure
	// changed Flow's interference closure; Residents is the closure's
	// resident population after the change (0 when Flow itself departed
	// and no resident by that name remains).
	Event     string `json:"event,omitempty"`
	Peer      string `json:"peer,omitempty"`
	Residents int    `json:"residents,omitempty"`
	Err       string `json:"err,omitempty"`
	Stats     *Stats `json:"stats,omitempty"`
}

// Stats is the counters snapshot served by the "stats" op and the
// -status endpoint: the controller's admission accounting plus the
// daemon's connection/subscription bookkeeping.
type Stats struct {
	// Controller accounting (identical semantics to the in-process
	// ShardedController counters).
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Released int `json:"released"`
	Resident int `json:"resident"`

	// Daemon aggregates.
	Conns      int   `json:"conns"`       // live connections
	TotalConns int64 `json:"total_conns"` // connections ever accepted
	Subs       int   `json:"subs"`        // live (flow, connection) subscriptions
	Dropped    int   `json:"dropped"`     // connections dropped on outbound-queue overflow
	Ops        int64 `json:"ops"`         // operations dispatched
	Verdicts   int64 `json:"verdicts"`    // verdict/stats/error replies sent
	Events     int64 `json:"events"`      // subscription events sent
	// BadLines counts op lines refused as over-long or malformed; each
	// was answered with an error that closed its connection.
	BadLines int64 `json:"bad_lines,omitempty"`

	// PerConn lists the live connections in accept order.
	PerConn []ConnStats `json:"per_conn,omitempty"`
}

// ConnStats is one live connection's counters.
type ConnStats struct {
	ID       int64  `json:"id"`
	Addr     string `json:"addr"`
	Ops      int64  `json:"ops"`
	Verdicts int64  `json:"verdicts"`
	Events   int64  `json:"events"`
	Subs     int    `json:"subs"`
	Queue    int    `json:"queue"` // outbound messages currently queued
}
