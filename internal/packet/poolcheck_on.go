//go:build poolcheck

package packet

import "time"

// The poolcheck build (go test -tags poolcheck) poisons a released segment
// instead of leaving it zeroed: a stale reader of its header then sees
// implausible values (0xDB bytes, every flag set), one of its option list
// panics, and an option pointer it kept reads poison too, where the plain
// build would show zeros that look like a real, empty segment.

const (
	poison8  = 0xDB
	poison16 = 0xDBDB
	poison32 = 0xDBDBDBDB
	poison64 = 0xDBDBDBDBDBDBDBDB
)

// releasedOption fills the option list of a released segment: any use of one
// panics.
type releasedOption struct{}

func (releasedOption) Kind() OptionKind      { panic("packet: option of a released segment") }
func (releasedOption) Subtype() MPTCPSubtype { panic("packet: option of a released segment") }
func (releasedOption) WireLen() int          { panic("packet: option of a released segment") }
func (releasedOption) String() string        { panic("packet: option of a released segment") }

// poisonReleased runs on a segment Release has zeroed.
func poisonReleased(s *Segment) {
	ep := Endpoint{Addr: poison32, Port: poison16}
	s.Src, s.Dst = ep, ep
	s.Seq, s.Ack = poison32, poison32
	s.Flags, s.Window = poison8, poison16
	p64 := uint64(poison64)
	s.SentAt, s.Ordinal = time.Duration(p64), p64
	opts := s.Options[:cap(s.Options)]
	for i := range opts {
		opts[i] = releasedOption{}
	}
	if a := s.optArena; a != nil {
		a.poison()
	}
}

// clearPoison gives NewSegment the zeroed segment the plain build releases.
func clearPoison(s *Segment) {
	*s = Segment{Options: s.Options[:0], optArena: s.optArena}
}

// poison fills every option slot of the arena, used or not, with poison;
// carve zeroes a slot as it hands it out again.
func (a *optionArena) poison() {
	for i := range a.mss {
		a.mss[i] = MSSOption{MSS: poison16}
	}
	for i := range a.ws {
		a.ws[i] = WindowScaleOption{Shift: poison8}
	}
	for i := range a.ts {
		a.ts[i] = TimestampsOption{Val: poison32, Echo: poison32}
	}
	for i := range a.blocks {
		a.blocks[i] = SACKBlock{Left: poison32, Right: poison32}
	}
	for i := range a.mpc {
		a.mpc[i] = MPCapableOption{Version: poison8, ChecksumRequired: true, SenderKey: poison64,
			ReceiverKey: poison64, HasReceiverKey: true}
	}
	for i := range a.join {
		a.join[i] = MPJoinOption{Phase: poison8, AddrID: poison8, Backup: true, ReceiverToken: poison32,
			SenderNonce: poison32, SenderHMAC: a.join[i].SenderHMAC}
	}
	for i := range a.hmac {
		a.hmac[i] = poison8
	}
	for i := range a.dss {
		a.dss[i] = DSSOption{HasDataACK: true, DataACK: poison64, HasMapping: true, DataSeq: poison64,
			SubflowOffset: poison32, Length: poison16, HasChecksum: true, Checksum: poison16, DataFIN: true}
	}
	for i := range a.add {
		a.add[i] = AddAddrOption{AddrID: poison8, Addr: poison32, Port: poison16}
	}
	for i := range a.ids {
		a.ids[i] = poison8
	}
	for i := range a.prio {
		a.prio[i] = MPPrioOption{AddrID: poison8, Backup: true}
	}
	for i := range a.fail {
		a.fail[i] = MPFailOption{DataSeq: poison64}
	}
	for i := range a.fc {
		a.fc[i] = FastcloseOption{ReceiverKey: poison64}
	}
}
