// Package ether implements the paper's Ethernet packetisation model
// (Section 3.1): how a UDP packet of S payload bits becomes one or more
// Ethernet frames on the wire, the per-link transmission time C_i^k, and
// the maximum frame transmission time MFT (eq. 1).
//
// Wire format accounting, per the paper: an Ethernet frame carries at most
// 1500 bytes of IP payload of which 20 bytes are the IP header, leaving
// 1480 bytes (11840 bits) of UDP data. On the wire the frame additionally
// occupies a 14-byte MAC header, 4-byte CRC, 8-byte preamble + start-frame
// delimiter and a 12-byte inter-frame gap, so a maximum-size frame is
// 1538 bytes = 12304 bits.
//
// Faithfulness note (docs/ARCHITECTURE.md, F1): the paper's partial-frame formula
// prints "+304" bits of overhead, but 12304 = 11840 + 464, and 304 would
// omit the per-fragment IP header that the paper's own 1480-byte figure
// assumes. We charge rem+464 bits for a partial trailing fragment.
package ether

import (
	"fmt"

	"gmfnet/internal/gmf"
	"gmfnet/internal/units"
)

// Wire-format constants, in bytes unless suffixed Bits.
const (
	// MTUPayloadBytes is the maximum IP payload of an Ethernet frame.
	MTUPayloadBytes = 1500
	// IPHeaderBytes is the IPv4 header carried in every fragment.
	IPHeaderBytes = 20
	// UDPHeaderBytes is the UDP header carried once per UDP packet.
	UDPHeaderBytes = 8
	// RTPHeaderBytes is the RTP header size used by the paper (16 bytes;
	// RFC 3550 specifies 12 — we follow the paper, docs/ARCHITECTURE.md, F8).
	RTPHeaderBytes = 16
	// MACHeaderBytes, CRCBytes, PreambleSFDBytes and InterFrameGapBytes
	// make up the per-frame wire overhead outside the IP payload.
	MACHeaderBytes     = 14
	CRCBytes           = 4
	PreambleSFDBytes   = 8
	InterFrameGapBytes = 12

	// DataBitsPerFrame is the UDP data capacity of one Ethernet frame:
	// (1500-20) bytes = 11840 bits.
	DataBitsPerFrame = (MTUPayloadBytes - IPHeaderBytes) * 8
	// FrameOverheadBits is the non-UDP-data wire cost of one fragment:
	// MAC header + CRC + preamble/SFD + IFG + IP header = 58 B = 464 bits.
	FrameOverheadBits = (MACHeaderBytes + CRCBytes + PreambleSFDBytes + InterFrameGapBytes + IPHeaderBytes) * 8
	// MaxFrameWireBits is the on-wire size of a maximum Ethernet frame:
	// 12304 bits (eq. 1's numerator).
	MaxFrameWireBits = DataBitsPerFrame + FrameOverheadBits
)

// UDPBits returns nbits_i^k: the size of the UDP datagram (payload rounded
// up to whole bytes, plus the UDP header and, if rtp is set, the RTP
// header). This is the quantity that fragments across Ethernet frames.
func UDPBits(payloadBits int64, rtp bool) int64 {
	if payloadBits < 0 {
		panic("ether: negative payload")
	}
	n := units.CeilDiv(payloadBits, 8)*8 + UDPHeaderBytes*8
	if rtp {
		n += RTPHeaderBytes * 8
	}
	return n
}

// FrameCount returns the number of Ethernet frames the UDP datagram
// fragments into.
func FrameCount(udpBits int64) int64 {
	if udpBits <= 0 {
		panic("ether: non-positive UDP size")
	}
	return units.CeilDiv(udpBits, DataBitsPerFrame)
}

// WireBits returns the total number of bits the UDP datagram occupies on
// the wire, including all per-fragment overheads and inter-frame gaps.
func WireBits(udpBits int64) int64 {
	if udpBits <= 0 {
		panic("ether: non-positive UDP size")
	}
	full := udpBits / DataBitsPerFrame
	rem := udpBits % DataBitsPerFrame
	bits := full * MaxFrameWireBits
	if rem > 0 {
		bits += rem + FrameOverheadBits
	}
	return bits
}

// Fragments returns the on-wire size in bits of each Ethernet frame of the
// UDP datagram, in transmission order. The sum equals WireBits.
func Fragments(udpBits int64) []int64 {
	nf := FrameCount(udpBits)
	out := make([]int64, 0, nf)
	for rem := udpBits; rem > 0; rem -= DataBitsPerFrame {
		data := rem
		if data > DataBitsPerFrame {
			data = DataBitsPerFrame
		}
		out = append(out, data+FrameOverheadBits)
	}
	return out
}

// TxTime returns C_i^k on a link of the given rate: the time to transmit
// all Ethernet frames of the UDP datagram back to back.
func TxTime(udpBits int64, rate units.BitRate) units.Time {
	return units.TxTime(WireBits(udpBits), rate)
}

// MFT returns eq. (1): the Maximum-Frame-Transmission-Time of a link,
// i.e. the time a maximum-size Ethernet frame occupies the wire. It bounds
// the blocking a higher-priority frame can suffer from one lower-priority
// frame already in transmission.
func MFT(rate units.BitRate) units.Time {
	return units.TxTime(MaxFrameWireBits, rate)
}

// DemandFor builds the gmf.Demand of a flow on a link of the given rate:
// per-frame transmission times and Ethernet fragment counts.
func DemandFor(flow *gmf.Flow, rate units.BitRate, rtp bool) (*gmf.Demand, error) {
	if err := flow.Validate(); err != nil {
		return nil, err
	}
	if rate <= 0 {
		return nil, fmt.Errorf("ether: non-positive link rate %d", rate)
	}
	n := flow.N()
	cost := make([]units.Time, n)
	count := make([]int64, n)
	for k := 0; k < n; k++ {
		ub := UDPBits(flow.Frames[k].PayloadBits, rtp)
		cost[k] = TxTime(ub, rate)
		count[k] = FrameCount(ub)
	}
	return gmf.NewDemand(flow, cost, count)
}
