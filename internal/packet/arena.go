package packet

import "fmt"

// Per-segment option arena. Decoding a segment used to allocate one heap
// object per option (plus a slice per SACK block list, HMAC and address-ID
// list), and the send path allocated fresh Timestamps/SACK/DSS objects for
// every outgoing segment. The arena gives each pooled Segment a fixed block
// of inline option storage instead: options are carved out of the arena,
// live exactly as long as the segment, and are reclaimed wholesale when the
// segment is released. Option pointers obtained from a segment's arena must
// therefore never outlive the segment — copy the values out to keep them.
//
// The slot counts cover everything a 40-byte TCP option space can carry in
// practice; pathological inputs (e.g. a fuzzed header stuffed with ten MSS
// options) fall back to ordinary heap allocation, trading speed for
// correctness.
type optionArena struct {
	mss    [2]MSSOption
	ws     [2]WindowScaleOption
	ts     [2]TimestampsOption
	sackP  [2]SACKPermittedOption
	sack   [2]SACKOption
	blocks [8]SACKBlock
	mpc    [2]MPCapableOption
	join   [2]MPJoinOption
	hmac   [40]byte
	dss    [4]DSSOption
	add    [4]AddAddrOption
	rm     [2]RemoveAddrOption
	ids    [16]uint8
	prio   [2]MPPrioOption
	fail   [2]MPFailOption
	fc     [2]FastcloseOption

	nMSS, nWS, nTS, nSackP, nSack, nBlocks    uint8
	nMPC, nJoin, nHMAC, nDSS, nAdd, nRm, nIDs uint8
	nPrio, nFail, nFC                         uint8
}

// reset forgets every allocation; the slots themselves are zeroed lazily on
// their next use.
func (a *optionArena) reset() {
	a.nMSS, a.nWS, a.nTS, a.nSackP, a.nSack, a.nBlocks = 0, 0, 0, 0, 0, 0
	a.nMPC, a.nJoin, a.nHMAC, a.nDSS, a.nAdd, a.nRm, a.nIDs = 0, 0, 0, 0, 0, 0, 0
	a.nPrio, a.nFail, a.nFC = 0, 0, 0
}

// arena returns the segment's option arena. A pooled segment is born with
// one (see pooledSegment) and keeps it across reuses; a segment literal, as
// tests build them, gets one on first use.
func (s *Segment) arena() *optionArena {
	if s.optArena == nil {
		s.optArena = new(optionArena)
	}
	return s.optArena
}

// carve hands out the next free slot of one option kind, zeroed, or a heap
// value once the kind's slots are used up.
func carve[T any](slots []T, used *uint8) *T {
	if int(*used) == len(slots) {
		return new(T)
	}
	o := &slots[*used]
	*used++
	var zero T
	*o = zero
	return o
}

// carveN is carve for the backing stores: a zeroed run of n elements, its
// capacity clamped so appends never spill into the neighbouring run, or a
// heap slice when the store cannot fit it.
func carveN[T any](store []T, used *uint8, n int) []T {
	lo := int(*used)
	if lo+n > len(store) {
		return make([]T, n)
	}
	*used += uint8(n)
	run := store[lo : lo+n : lo+n]
	clear(run)
	return run
}

// Typed allocators: each binds carve to one kind's slots.

func (s *Segment) newMSS() *MSSOption { a := s.arena(); return carve(a.mss[:], &a.nMSS) }

func (s *Segment) newWindowScale() *WindowScaleOption { a := s.arena(); return carve(a.ws[:], &a.nWS) }

func (s *Segment) newTimestamps() *TimestampsOption { a := s.arena(); return carve(a.ts[:], &a.nTS) }

func (s *Segment) newSACKPermitted() *SACKPermittedOption {
	a := s.arena()
	return carve(a.sackP[:], &a.nSackP)
}

// newSACK returns a SACK option whose Blocks slice has length n (zeroed).
func (s *Segment) newSACK(n int) *SACKOption {
	a := s.arena()
	o := carve(a.sack[:], &a.nSack)
	o.Blocks = carveN(a.blocks[:], &a.nBlocks, n)
	return o
}

func (s *Segment) newMPCapable() *MPCapableOption { a := s.arena(); return carve(a.mpc[:], &a.nMPC) }

func (s *Segment) newMPJoin() *MPJoinOption { a := s.arena(); return carve(a.join[:], &a.nJoin) }

// arenaBytes carves n bytes out of the arena's HMAC store (for MP_JOIN
// HMACs).
func (s *Segment) arenaBytes(n int) []byte { a := s.arena(); return carveN(a.hmac[:], &a.nHMAC, n) }

// NewDSSOption returns a zeroed DSS option backed by the segment's arena.
// The returned option is valid only for the lifetime of the segment.
func (s *Segment) NewDSSOption() *DSSOption { a := s.arena(); return carve(a.dss[:], &a.nDSS) }

func (s *Segment) newAddAddr() *AddAddrOption { a := s.arena(); return carve(a.add[:], &a.nAdd) }

// newRemoveAddr returns a REMOVE_ADDR option whose AddrIDs slice has length
// n (zeroed).
func (s *Segment) newRemoveAddr(n int) *RemoveAddrOption {
	a := s.arena()
	o := carve(a.rm[:], &a.nRm)
	o.AddrIDs = carveN(a.ids[:], &a.nIDs, n)
	return o
}

func (s *Segment) newMPPrio() *MPPrioOption { a := s.arena(); return carve(a.prio[:], &a.nPrio) }

func (s *Segment) newMPFail() *MPFailOption { a := s.arena(); return carve(a.fail[:], &a.nFail) }

func (s *Segment) newFastclose() *FastcloseOption { a := s.arena(); return carve(a.fc[:], &a.nFC) }

// ---------------------------------------------------------------------------
// Hot-path builders used by the TCP/MPTCP send path
// ---------------------------------------------------------------------------

// AppendDSS allocates a zeroed DSS option from the segment's arena, appends
// it to the option list and returns it for the caller to fill in.
func (s *Segment) AppendDSS() *DSSOption {
	o := s.NewDSSOption()
	s.Options = append(s.Options, o)
	return o
}

// AppendTimestamps appends an arena-backed RFC 1323 timestamps option.
func (s *Segment) AppendTimestamps(val, echo uint32) {
	o := s.newTimestamps()
	o.Val, o.Echo = val, echo
	s.Options = append(s.Options, o)
}

// AppendSACK appends an arena-backed SACK option carrying a copy of blocks.
func (s *Segment) AppendSACK(blocks []SACKBlock) {
	o := s.newSACK(len(blocks))
	copy(o.Blocks, blocks)
	s.Options = append(s.Options, o)
}

// AppendMSS appends an arena-backed MSS option (SYN).
func (s *Segment) AppendMSS(mss uint16) {
	o := s.newMSS()
	o.MSS = mss
	s.Options = append(s.Options, o)
}

// AppendSACKPermitted appends an arena-backed SACK-permitted option (SYN).
func (s *Segment) AppendSACKPermitted() {
	s.Options = append(s.Options, s.newSACKPermitted())
}

// AppendWindowScale appends an arena-backed window-scale option (SYN).
func (s *Segment) AppendWindowScale(shift uint8) {
	o := s.newWindowScale()
	o.Shift = shift
	s.Options = append(s.Options, o)
}

// AppendMPCapable appends an arena-backed copy of v: taking handshake options
// by value lets the sender build them where they will live, not on the heap.
func (s *Segment) AppendMPCapable(v MPCapableOption) {
	o := s.newMPCapable()
	*o = v
	s.Options = append(s.Options, o)
}

// AppendMPJoin appends an arena-backed copy of v, its HMAC bytes included.
func (s *Segment) AppendMPJoin(v MPJoinOption) {
	o := s.newMPJoin()
	// Field by field, the HMAC slice left out: v never reaches the heap, so
	// a caller's MAC array stays on its stack.
	*o = MPJoinOption{Phase: v.Phase, AddrID: v.AddrID, Backup: v.Backup,
		ReceiverToken: v.ReceiverToken, SenderNonce: v.SenderNonce}
	if v.SenderHMAC != nil {
		o.SenderHMAC = s.arenaBytes(len(v.SenderHMAC))
		copy(o.SenderHMAC, v.SenderHMAC)
	}
	s.Options = append(s.Options, o)
}

// AppendOptionCopy appends a deep copy of o drawn from the segment's arena.
// The send path uses it to give every outgoing segment its own option
// objects: a segment in flight never aliases the sender's retransmission
// state, which is what makes recycling chunks and their DSS options safe.
func (s *Segment) AppendOptionCopy(o Option) {
	switch opt := o.(type) {
	case *MSSOption:
		s.AppendMSS(opt.MSS)
	case *WindowScaleOption:
		s.AppendWindowScale(opt.Shift)
	case *TimestampsOption:
		s.AppendTimestamps(opt.Val, opt.Echo)
	case *SACKPermittedOption:
		s.AppendSACKPermitted()
	case *SACKOption:
		s.AppendSACK(opt.Blocks)
	case *MPCapableOption:
		s.AppendMPCapable(*opt)
	case *MPJoinOption:
		s.AppendMPJoin(*opt)
	case *DSSOption:
		*s.AppendDSS() = *opt
	case *AddAddrOption:
		n := s.newAddAddr()
		*n = *opt
		s.Options = append(s.Options, n)
	case *RemoveAddrOption:
		n := s.newRemoveAddr(len(opt.AddrIDs))
		copy(n.AddrIDs, opt.AddrIDs)
		s.Options = append(s.Options, n)
	case *MPPrioOption:
		n := s.newMPPrio()
		*n = *opt
		s.Options = append(s.Options, n)
	case *MPFailOption:
		n := s.newMPFail()
		*n = *opt
		s.Options = append(s.Options, n)
	case *FastcloseOption:
		n := s.newFastclose()
		*n = *opt
		s.Options = append(s.Options, n)
	default:
		panic(fmt.Sprintf("packet: AppendOptionCopy: unknown option type %T", o))
	}
}
