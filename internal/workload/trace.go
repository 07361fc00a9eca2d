package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// The request-trace format is one JSON object per line: a Header naming
// the generated topology, then add/del operations in stream order. A
// recorded trace replays deterministically — admit/reject decisions
// depend only on the operations, not on timing or RNG state — so the
// same trace through the sharded controller, one request at a time or
// batched, and through the cold referee must produce byte-identical
// decision logs (gmfnet-admit's golden tests pin that).

// Header is the first line of a trace file.
type Header struct {
	Topo TopoSpec `json:"topo"`
}

// Op is one recorded operation. Traces on disk only ever carry "add"
// and "del"; the gmfnet-admitd wire protocol (internal/admitd) reuses
// the same schema with additional op kinds ("batch", "sub", "unsub",
// "stats"), a correlation ID, and member operations for batches — all
// omitempty, so trace files are byte-unchanged.
type Op struct {
	Op   string `json:"op"` // "add" or "del"; wire ops add "batch", "sub", "unsub", "stats"
	Name string `json:"name"`

	// ID correlates a wire request with its verdicts; unused in traces.
	ID int64 `json:"id,omitempty"`
	// Flows holds the member "add" operations of a wire "batch" op.
	Flows []Op `json:"flows,omitempty"`

	// Request parameters, set for "add". Times are picoseconds
	// (units.Time), so recording is lossless.
	Kind       string `json:"kind,omitempty"` // "voip" or "cbr"
	Src        string `json:"src,omitempty"`
	Dst        string `json:"dst,omitempty"`
	Prio       int    `json:"prio,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`       // cbr frame payload
	PeriodPS   int64  `json:"period_ps,omitempty"`   // cbr period
	DeadlinePS int64  `json:"deadline_ps,omitempty"` // end-to-end deadline
	RTP        bool   `json:"rtp,omitempty"`
}

// Spec rebuilds the flow spec of an "add" operation on the given
// topology.
func (op *Op) Spec(topo *network.Topology) (*network.FlowSpec, error) {
	route, err := topo.Route(network.NodeID(op.Src), network.NodeID(op.Dst))
	if err != nil {
		return nil, fmt.Errorf("trace op %q: %w", op.Name, err)
	}
	fs := &network.FlowSpec{Route: route, Priority: network.Priority(op.Prio)}
	switch op.Kind {
	case "voip":
		fs.Flow = trace.VoIP(op.Name, trace.VoIPOptions{Deadline: units.Time(op.DeadlinePS)})
		fs.RTP = op.RTP
	case "cbr":
		fs.Flow = trace.CBRVideo(op.Name, op.Bytes,
			units.Time(op.PeriodPS), units.Time(op.DeadlinePS))
		fs.RTP = op.RTP
	default:
		return nil, fmt.Errorf("trace op %q: unknown kind %q", op.Name, op.Kind)
	}
	return fs, nil
}

// WriteTrace writes a whole synthesized trace (header + ops) to w.
func WriteTrace(w io.Writer, h Header, ops []Op) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return err
	}
	for i := range ops {
		if err := enc.Encode(&ops[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace stream into its header and operation list.
func ReadTrace(r io.Reader) (Header, []Op, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h Header
	if err := dec.Decode(&h); err != nil {
		return Header{}, nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if err := h.Topo.validate(); err != nil {
		return Header{}, nil, fmt.Errorf("trace: %w", err)
	}
	var ops []Op
	for {
		var op Op
		if err := dec.Decode(&op); err == io.EOF {
			break
		} else if err != nil {
			return Header{}, nil, fmt.Errorf("trace: op %d: %w", len(ops), err)
		}
		if op.Op != "add" && op.Op != "del" {
			return Header{}, nil, fmt.Errorf("trace: op %d: unknown op %q", len(ops), op.Op)
		}
		ops = append(ops, op)
	}
	return h, ops, nil
}

// LoadTrace reads a trace file.
func LoadTrace(path string) (Header, []Op, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	h, ops, err := ReadTrace(f)
	if err != nil {
		return Header{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, ops, nil
}
