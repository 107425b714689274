package faults

import (
	"encoding/binary"
	"fmt"
	"strings"

	"mptcpgo/internal/core"
	"mptcpgo/internal/sim"
)

// End-to-end integrity invariants. Whatever the chaos layer does to the
// network, an MPTCP connection must deliver the application byte stream
// exactly once, in order — or die with an explicit error. The Checker
// verifies this byte-for-byte against a deterministic pattern, so duplicated,
// reordered or corrupted delivery is caught at the first bad byte; equality
// with the pattern at every offset plus the exact-length check is stream
// equality, so there is no separate end-of-run hash. The liveness half of the
// invariant is the connection's own: core.Connection counts a stall episode
// when its DATA_ACK stands still (see core.StallInterval), and DumpConnection
// renders the state to report it with.

// patternWord returns the 64-bit word covering stream offsets [8w, 8w+8) for
// a given stream seed: the splitmix64 sequence seeded with seed, so every
// word and seed yields effectively independent bytes.
func patternWord(seed, w uint64) uint64 { return sim.DeriveSeed(seed, w) }

// PatternByte returns the expected payload byte at stream offset off for a
// given stream seed: byte off&7 of the little-endian encoding of pattern word
// off>>3, the same on any host.
func PatternByte(seed, off uint64) byte {
	return byte(patternWord(seed, off>>3) >> (8 * (off & 7)))
}

// Checker verifies exact-once in-order delivery of a patterned byte stream.
type Checker struct {
	Seed     uint64
	Expected uint64 // total bytes the sender will transmit

	received uint64
	mismatch int64 // stream offset of the first wrong byte; -1 = none
}

// NewChecker builds a checker for a transfer of `expected` bytes generated
// from `seed`.
func NewChecker(seed uint64, expected int) *Checker {
	return &Checker{Seed: seed, Expected: uint64(expected), mismatch: -1}
}

// Fill writes the pattern for stream offsets [off, off+len(p)) into p; the
// sender uses it to generate the transfer without materializing it. Whole
// words are stored eight bytes per mix, an unaligned head and tail per byte.
func (k *Checker) Fill(p []byte, off uint64) {
	for ; len(p) > 0 && off&7 != 0; p, off = p[1:], off+1 {
		p[0] = PatternByte(k.Seed, off)
	}
	for ; len(p) >= 8; p, off = p[8:], off+8 {
		binary.LittleEndian.PutUint64(p, patternWord(k.Seed, off>>3))
	}
	for i := range p {
		p[i] = PatternByte(k.Seed, off+uint64(i))
	}
}

// Feed consumes received bytes in application order, verifying each against
// the pattern: an aligned run eight bytes per mix, everything else (and the
// first word that differs, to locate the wrong byte in it) per byte. Bytes
// after the first wrong one are only counted.
func (k *Checker) Feed(p []byte) {
	for len(p) > 0 && k.mismatch < 0 {
		if k.received&7 == 0 && len(p) >= 8 &&
			binary.LittleEndian.Uint64(p) == patternWord(k.Seed, k.received>>3) {
			p = p[8:]
			k.received += 8
			continue
		}
		if p[0] != PatternByte(k.Seed, k.received) {
			k.mismatch = int64(k.received)
			break
		}
		p = p[1:]
		k.received++
	}
	k.received += uint64(len(p))
}

// Received returns the number of bytes consumed so far.
func (k *Checker) Received() uint64 { return k.received }

// Intact reports whether every byte so far matched the pattern.
func (k *Checker) Intact() bool { return k.mismatch < 0 }

// Complete reports whether the full transfer arrived intact.
func (k *Checker) Complete() bool { return k.mismatch < 0 && k.received == k.Expected }

// Err describes the first violated invariant, or nil.
func (k *Checker) Err() error {
	switch {
	case k.mismatch >= 0:
		return fmt.Errorf("faults: byte-stream corruption at offset %d (received %d/%d bytes)", k.mismatch, k.received, k.Expected)
	case k.received > k.Expected:
		return fmt.Errorf("faults: received %d bytes, expected only %d (duplicate delivery)", k.received, k.Expected)
	case k.received < k.Expected:
		return fmt.Errorf("faults: short delivery: %d/%d bytes", k.received, k.Expected)
	}
	return nil
}

// ClassifyFallback maps a Connection.OnFallback reason string onto the small
// taxonomy the chaos scenarios report on. The categories follow §3's failure
// modes: options stripped at the handshake vs. mid-stream, checksum-detected
// payload mangling, peer-signalled MP_FAIL, and mappings lost to coalescing.
func ClassifyFallback(reason string) string {
	switch {
	case strings.Contains(reason, "MP_FAIL"):
		return "mp-fail"
	case strings.Contains(reason, "no MP_CAPABLE"):
		return "handshake-strip"
	case strings.Contains(reason, "stripped after handshake"):
		return "midstream-strip"
	case strings.Contains(reason, "checksum"):
		return "checksum"
	case strings.Contains(reason, "without a mapping"):
		return "unmapped-data"
	default:
		return "other"
	}
}

// DumpConnection renders a one-connection diagnostic: connection flags,
// counters and per-subflow endpoint state. Chaos attaches it to the report of
// a stalled member so a hang is debuggable from the test log alone.
func DumpConnection(c *core.Connection) string {
	if c == nil {
		return "<nil connection>"
	}
	var b strings.Builder
	st := c.Stats()
	fmt.Fprintf(&b, "conn established=%v mptcp=%v fallback=%v closed=%v err=%v\n",
		c.Established(), c.MPTCPActive(), c.Fallback(), c.Closed(), c.Err())
	fmt.Fprintf(&b, "  written=%d delivered=%d reinject=%d connRtx=%d unmapped=%d fallbacks=%d subflowsOpened=%d\n",
		st.BytesWritten, st.BytesDelivered, st.Reinjections, st.ConnLevelRtx, st.UnmappedBytes, st.Fallbacks, st.SubflowsOpened)
	for _, s := range c.Subflows() {
		ep := s.Endpoint()
		if ep == nil {
			fmt.Fprintf(&b, "  subflow %d: no endpoint\n", s.ID())
			continue
		}
		es := ep.Stats()
		fmt.Fprintf(&b, "  subflow %d role=%d state=%v usable=%v srtt=%v sent=%d rcvd=%d rtx=%d timeouts=%d\n",
			s.ID(), s.Role(), ep.State(), s.Usable(), ep.SRTT(), es.SegmentsSent, es.SegmentsReceived, es.Retransmissions, es.Timeouts)
	}
	return b.String()
}
