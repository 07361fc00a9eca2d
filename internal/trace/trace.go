// Package trace provides workload generators: the paper's MPEG GOP example
// (Figure 3), VoIP and CBR video presets, and seeded random GMF workloads
// for parameter sweeps.
package trace

import (
	"fmt"
	"math/rand"

	"gmfnet/internal/gmf"
	"gmfnet/internal/units"
)

// MPEGOptions parameterises the Figure 3 stream: the GOP IBBPBBPBB
// transmitted as UDP packets every 30 ms, repeating every 270 ms.
//
// The paper's Figure 4 lists concrete per-frame transmission times that
// are illegible in the available text (docs/ARCHITECTURE.md, F7); the defaults below
// are representative MPEG-2 frame sizes at standard definition.
type MPEGOptions struct {
	// IPBytes is the payload of the combined "I+P" frame that opens the
	// GOP. Zero selects 18000 bytes.
	IPBytes int64
	// PBytes is the payload of a P frame. Zero selects 6000 bytes.
	PBytes int64
	// BBytes is the payload of a B frame. Zero selects 1500 bytes.
	BBytes int64
	// FramePeriod is the spacing between transmitted frames. Zero
	// selects 30 ms (Figure 3's timeline).
	FramePeriod units.Time
	// Deadline is the relative end-to-end deadline of every frame. Zero
	// selects 100 ms (a videoconferencing latency budget).
	Deadline units.Time
	// Jitter is the generalized jitter of every frame. Zero selects 1 ms
	// (the value used for Figure 4's illustration). Use a negative value
	// for zero jitter.
	Jitter units.Time
}

func (o MPEGOptions) withDefaults() MPEGOptions {
	if o.IPBytes == 0 {
		o.IPBytes = 18000
	}
	if o.PBytes == 0 {
		o.PBytes = 6000
	}
	if o.BBytes == 0 {
		o.BBytes = 1500
	}
	if o.FramePeriod == 0 {
		o.FramePeriod = 30 * units.Millisecond
	}
	if o.Deadline == 0 {
		o.Deadline = 100 * units.Millisecond
	}
	switch {
	case o.Jitter == 0:
		o.Jitter = units.Millisecond
	case o.Jitter < 0:
		o.Jitter = 0
	}
	return o
}

// MPEGIBBPBBPBB builds the paper's Figure 3 flow: nine frames in
// transmission order I+P, B, B, P, B, B, P, B, B with equal 30 ms spacing,
// so TSUM = 270 ms.
func MPEGIBBPBBPBB(name string, opt MPEGOptions) *gmf.Flow {
	opt = opt.withDefaults()
	sizes := []int64{
		opt.IPBytes, // I+P
		opt.BBytes, opt.BBytes,
		opt.PBytes,
		opt.BBytes, opt.BBytes,
		opt.PBytes,
		opt.BBytes, opt.BBytes,
	}
	f := &gmf.Flow{Name: name}
	for _, bytes := range sizes {
		f.Frames = append(f.Frames, gmf.Frame{
			MinSep:      opt.FramePeriod,
			Deadline:    opt.Deadline,
			Jitter:      opt.Jitter,
			PayloadBits: bytes * 8,
		})
	}
	return f
}

// VoIPOptions parameterises a constant-bit-rate telephony flow.
type VoIPOptions struct {
	// PayloadBytes per packet. Zero selects 160 (G.711, 20 ms of audio).
	PayloadBytes int64
	// Period between packets. Zero selects 20 ms.
	Period units.Time
	// Deadline per packet. Zero selects 20 ms (one period: the next
	// packet must not queue behind the previous one).
	Deadline units.Time
	// Jitter at the source. Zero means none.
	Jitter units.Time
}

// VoIP builds a single-frame GMF flow modelling a G.711-style voice
// stream.
func VoIP(name string, opt VoIPOptions) *gmf.Flow {
	if opt.PayloadBytes == 0 {
		opt.PayloadBytes = 160
	}
	if opt.Period == 0 {
		opt.Period = 20 * units.Millisecond
	}
	if opt.Deadline == 0 {
		opt.Deadline = 20 * units.Millisecond
	}
	return &gmf.Flow{Name: name, Frames: []gmf.Frame{{
		MinSep:      opt.Period,
		Deadline:    opt.Deadline,
		Jitter:      opt.Jitter,
		PayloadBits: opt.PayloadBytes * 8,
	}}}
}

// CBRVideo builds a constant-bit-rate video flow: equal frames of
// frameBytes every period.
func CBRVideo(name string, frameBytes int64, period, deadline units.Time) *gmf.Flow {
	return &gmf.Flow{Name: name, Frames: []gmf.Frame{{
		MinSep:      period,
		Deadline:    deadline,
		Jitter:      0,
		PayloadBits: frameBytes * 8,
	}}}
}

// RandomOptions bounds the random GMF workload generator.
type RandomOptions struct {
	// Frames is the range of n_i (inclusive). Zeros select [1, 6].
	MinFrames, MaxFrames int
	// Separation is the range of T_i^k. Zeros select [10 ms, 100 ms].
	MinSep, MaxSep units.Time
	// PayloadBytes is the range of payload sizes. Zeros select
	// [200 B, 30 kB].
	MinPayloadBytes, MaxPayloadBytes int64
	// DeadlineFactor scales the deadline: D = factor × TSUM. Zero
	// selects 1.0.
	DeadlineFactor float64
	// MaxJitter bounds the random source jitter. Zero means none.
	MaxJitter units.Time
}

func (o RandomOptions) withDefaults() RandomOptions {
	if o.MinFrames == 0 {
		o.MinFrames = 1
	}
	if o.MaxFrames == 0 {
		o.MaxFrames = 6
	}
	if o.MinSep == 0 {
		o.MinSep = 10 * units.Millisecond
	}
	if o.MaxSep == 0 {
		o.MaxSep = 100 * units.Millisecond
	}
	if o.MinPayloadBytes == 0 {
		o.MinPayloadBytes = 200
	}
	if o.MaxPayloadBytes == 0 {
		o.MaxPayloadBytes = 30000
	}
	if o.DeadlineFactor == 0 {
		o.DeadlineFactor = 1.0
	}
	return o
}

// Random builds a random well-formed GMF flow from the rng.
func Random(name string, rng *rand.Rand, opt RandomOptions) *gmf.Flow {
	opt = opt.withDefaults()
	if opt.MaxFrames < opt.MinFrames || opt.MaxSep < opt.MinSep || opt.MaxPayloadBytes < opt.MinPayloadBytes {
		panic(fmt.Sprintf("trace: inverted random bounds %+v", opt))
	}
	n := opt.MinFrames + rng.Intn(opt.MaxFrames-opt.MinFrames+1)
	f := &gmf.Flow{Name: name}
	var tsum units.Time
	seps := make([]units.Time, n)
	for k := 0; k < n; k++ {
		seps[k] = opt.MinSep + units.Time(rng.Int63n(int64(opt.MaxSep-opt.MinSep)+1))
		tsum += seps[k]
	}
	deadline := units.Time(opt.DeadlineFactor * float64(tsum))
	if deadline <= 0 {
		deadline = tsum
	}
	for k := 0; k < n; k++ {
		payload := opt.MinPayloadBytes + rng.Int63n(opt.MaxPayloadBytes-opt.MinPayloadBytes+1)
		var jit units.Time
		if opt.MaxJitter > 0 {
			jit = units.Time(rng.Int63n(int64(opt.MaxJitter) + 1))
		}
		f.Frames = append(f.Frames, gmf.Frame{
			MinSep:      seps[k],
			Deadline:    deadline,
			Jitter:      jit,
			PayloadBits: payload * 8,
		})
	}
	return f
}
