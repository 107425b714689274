package packet

import "fmt"

// OptionKind is a TCP option kind value.
type OptionKind uint8

// TCP option kinds used by this stack.
const (
	OptEOL           OptionKind = 0
	OptNOP           OptionKind = 1
	OptMSS           OptionKind = 2
	OptWindowScale   OptionKind = 3
	OptSACKPermitted OptionKind = 4
	OptSACK          OptionKind = 5
	OptTimestamps    OptionKind = 8
	// OptMPTCP is the IANA-assigned MPTCP option kind (30).
	OptMPTCP OptionKind = 30
)

// MPTCPSubtype identifies an MPTCP option subtype (RFC 6824 §3).
type MPTCPSubtype uint8

// MPTCP option subtypes.
const (
	SubMPCapable  MPTCPSubtype = 0x0
	SubMPJoin     MPTCPSubtype = 0x1
	SubDSS        MPTCPSubtype = 0x2
	SubAddAddr    MPTCPSubtype = 0x3
	SubRemoveAddr MPTCPSubtype = 0x4
	SubMPPrio     MPTCPSubtype = 0x5
	SubMPFail     MPTCPSubtype = 0x6
	SubFastclose  MPTCPSubtype = 0x7
	// SubNone marks a non-MPTCP option.
	SubNone MPTCPSubtype = 0xf
)

// String returns the subtype's protocol name.
func (s MPTCPSubtype) String() string {
	switch s {
	case SubMPCapable:
		return "MP_CAPABLE"
	case SubMPJoin:
		return "MP_JOIN"
	case SubDSS:
		return "DSS"
	case SubAddAddr:
		return "ADD_ADDR"
	case SubRemoveAddr:
		return "REMOVE_ADDR"
	case SubMPPrio:
		return "MP_PRIO"
	case SubMPFail:
		return "MP_FAIL"
	case SubFastclose:
		return "MP_FASTCLOSE"
	default:
		return fmt.Sprintf("MPTCP_SUB_%d", uint8(s))
	}
}

// Option is a TCP option carried in a segment.
type Option interface {
	// Kind returns the TCP option kind.
	Kind() OptionKind
	// Subtype returns the MPTCP subtype, or SubNone for plain TCP options.
	Subtype() MPTCPSubtype
	// WireLen returns the option's encoded length in bytes (without padding).
	WireLen() int
	// String renders the option for traces.
	String() string
}

// ---------------------------------------------------------------------------
// Standard TCP options
// ---------------------------------------------------------------------------

// MSSOption advertises the maximum segment size (SYN only).
type MSSOption struct {
	MSS uint16
}

// Kind implements Option.
func (o *MSSOption) Kind() OptionKind { return OptMSS }

// Subtype implements Option.
func (o *MSSOption) Subtype() MPTCPSubtype { return SubNone }

// WireLen implements Option.
func (o *MSSOption) WireLen() int { return 4 }

// String implements Option.
func (o *MSSOption) String() string { return fmt.Sprintf("mss=%d", o.MSS) }

// WindowScaleOption advertises the receive-window scale shift (SYN only).
type WindowScaleOption struct {
	Shift uint8
}

// Kind implements Option.
func (o *WindowScaleOption) Kind() OptionKind { return OptWindowScale }

// Subtype implements Option.
func (o *WindowScaleOption) Subtype() MPTCPSubtype { return SubNone }

// WireLen implements Option.
func (o *WindowScaleOption) WireLen() int { return 3 }

// String implements Option.
func (o *WindowScaleOption) String() string { return fmt.Sprintf("wscale=%d", o.Shift) }

// TimestampsOption carries RFC 1323 timestamps.
type TimestampsOption struct {
	Val  uint32
	Echo uint32
}

// Kind implements Option.
func (o *TimestampsOption) Kind() OptionKind { return OptTimestamps }

// Subtype implements Option.
func (o *TimestampsOption) Subtype() MPTCPSubtype { return SubNone }

// WireLen implements Option.
func (o *TimestampsOption) WireLen() int { return 10 }

// String implements Option.
func (o *TimestampsOption) String() string { return fmt.Sprintf("ts val=%d ecr=%d", o.Val, o.Echo) }

// SACKPermittedOption negotiates selective acknowledgements (SYN only).
type SACKPermittedOption struct{}

// Kind implements Option.
func (o *SACKPermittedOption) Kind() OptionKind { return OptSACKPermitted }

// Subtype implements Option.
func (o *SACKPermittedOption) Subtype() MPTCPSubtype { return SubNone }

// WireLen implements Option.
func (o *SACKPermittedOption) WireLen() int { return 2 }

// String implements Option.
func (o *SACKPermittedOption) String() string { return "sackOK" }

// SACKBlock is one selective-acknowledgement block.
type SACKBlock struct {
	Left  SeqNum
	Right SeqNum
}

// SACKOption carries selective acknowledgement blocks.
type SACKOption struct {
	Blocks []SACKBlock
}

// Kind implements Option.
func (o *SACKOption) Kind() OptionKind { return OptSACK }

// Subtype implements Option.
func (o *SACKOption) Subtype() MPTCPSubtype { return SubNone }

// WireLen implements Option.
func (o *SACKOption) WireLen() int { return 2 + 8*len(o.Blocks) }

// String implements Option.
func (o *SACKOption) String() string { return fmt.Sprintf("sack %v", o.Blocks) }

// ---------------------------------------------------------------------------
// MPTCP options (RFC 6824 wire format)
// ---------------------------------------------------------------------------

// MPCapableOption negotiates MPTCP in the initial three-way handshake
// (§3.1 of the paper). The SYN and SYN/ACK each carry the sender's 64-bit
// key; the third ACK carries both keys.
type MPCapableOption struct {
	Version uint8
	// ChecksumRequired mirrors the "A" flag: DSS checksums must be used.
	ChecksumRequired bool
	// SenderKey is the key of the host sending this option.
	SenderKey uint64
	// ReceiverKey is present only on the third ACK (and data echoes of it).
	ReceiverKey    uint64
	HasReceiverKey bool
}

// Kind implements Option.
func (o *MPCapableOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *MPCapableOption) Subtype() MPTCPSubtype { return SubMPCapable }

// WireLen implements Option.
func (o *MPCapableOption) WireLen() int {
	if o.HasReceiverKey {
		return 20
	}
	return 12
}

// String implements Option.
func (o *MPCapableOption) String() string {
	if o.HasReceiverKey {
		return fmt.Sprintf("mp_capable[k=%x,%x]", o.SenderKey, o.ReceiverKey)
	}
	return fmt.Sprintf("mp_capable[k=%x]", o.SenderKey)
}

// MPJoinPhase distinguishes the three shapes of MP_JOIN in the subflow
// handshake.
type MPJoinPhase uint8

// MP_JOIN phases.
const (
	JoinSYN MPJoinPhase = iota
	JoinSYNACK
	JoinACK
)

// MPJoinOption adds a new subflow to an existing connection (§3.2).
type MPJoinOption struct {
	Phase  MPJoinPhase
	AddrID uint8
	Backup bool

	// ReceiverToken identifies the connection at the passive opener
	// (SYN only); it is the truncated hash of the receiver's key.
	ReceiverToken uint32
	// SenderNonce is the random nonce used in HMAC computation
	// (SYN and SYN/ACK).
	SenderNonce uint32
	// SenderHMAC authenticates the subflow: truncated to 64 bits in the
	// SYN/ACK, full 160 bits in the third ACK.
	SenderHMAC []byte
}

// Kind implements Option.
func (o *MPJoinOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *MPJoinOption) Subtype() MPTCPSubtype { return SubMPJoin }

// WireLen implements Option.
func (o *MPJoinOption) WireLen() int {
	switch o.Phase {
	case JoinSYN:
		return 12
	case JoinSYNACK:
		return 16
	default:
		return 24
	}
}

// String implements Option.
func (o *MPJoinOption) String() string {
	return fmt.Sprintf("mp_join[phase=%d id=%d tok=%x]", o.Phase, o.AddrID, o.ReceiverToken)
}

// DSSOption carries the data sequence signal: an optional data-level
// cumulative acknowledgement and an optional mapping of subflow bytes into
// the connection-level sequence space (§3.3.2–§3.3.4).
type DSSOption struct {
	// DataACK is the connection-level cumulative acknowledgement (left edge
	// of the shared receive window).
	HasDataACK bool
	DataACK    DataSeq

	// Mapping fields. SubflowOffset is relative to the subflow's initial
	// sequence number so that sequence-rewriting middleboxes do not break
	// the mapping (§3.3.4).
	HasMapping    bool
	DataSeq       DataSeq
	SubflowOffset uint32
	Length        uint16

	// Checksum covers the payload plus the DSS pseudo-header (§3.3.6).
	HasChecksum bool
	Checksum    uint16

	// DataFIN signals the end of the connection-level data stream (§3.4).
	DataFIN bool
}

// Kind implements Option.
func (o *DSSOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *DSSOption) Subtype() MPTCPSubtype { return SubDSS }

// WireLen implements Option.
func (o *DSSOption) WireLen() int {
	n := 4 // kind, length, subtype/flags, reserved
	if o.HasDataACK {
		n += 8
	}
	if o.HasMapping {
		n += 8 + 4 + 2 // 64-bit data seq, subflow offset, length
		if o.HasChecksum {
			n += 2
		}
	}
	return n
}

// String implements Option.
func (o *DSSOption) String() string {
	s := "dss["
	if o.HasDataACK {
		s += fmt.Sprintf("ack=%d ", o.DataACK)
	}
	if o.HasMapping {
		s += fmt.Sprintf("map=%d@%d+%d ", o.DataSeq, o.SubflowOffset, o.Length)
	}
	if o.HasChecksum {
		s += fmt.Sprintf("csum=%04x ", o.Checksum)
	}
	if o.DataFIN {
		s += "dfin "
	}
	return s + "]"
}

// AddAddrOption advertises an additional address owned by the sender (§3.2).
type AddAddrOption struct {
	AddrID uint8
	Addr   Addr
	Port   uint16 // zero when not advertised
}

// Kind implements Option.
func (o *AddAddrOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *AddAddrOption) Subtype() MPTCPSubtype { return SubAddAddr }

// WireLen implements Option.
func (o *AddAddrOption) WireLen() int {
	if o.Port != 0 {
		return 10
	}
	return 8
}

// String implements Option.
func (o *AddAddrOption) String() string {
	return fmt.Sprintf("add_addr[id=%d %s:%d]", o.AddrID, o.Addr, o.Port)
}

// RemoveAddrOption withdraws previously advertised addresses (§3.4, mobility).
type RemoveAddrOption struct {
	AddrIDs []uint8
}

// Kind implements Option.
func (o *RemoveAddrOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *RemoveAddrOption) Subtype() MPTCPSubtype { return SubRemoveAddr }

// WireLen implements Option.
func (o *RemoveAddrOption) WireLen() int { return 3 + len(o.AddrIDs) }

// String implements Option.
func (o *RemoveAddrOption) String() string { return fmt.Sprintf("remove_addr%v", o.AddrIDs) }

// MPPrioOption changes a subflow's backup priority.
type MPPrioOption struct {
	AddrID uint8
	Backup bool
}

// Kind implements Option.
func (o *MPPrioOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *MPPrioOption) Subtype() MPTCPSubtype { return SubMPPrio }

// WireLen implements Option.
func (o *MPPrioOption) WireLen() int { return 4 }

// String implements Option.
func (o *MPPrioOption) String() string {
	return fmt.Sprintf("mp_prio[id=%d backup=%v]", o.AddrID, o.Backup)
}

// MPFailOption reports a DSS checksum failure in infinite-mapping fallback.
type MPFailOption struct {
	DataSeq DataSeq
}

// Kind implements Option.
func (o *MPFailOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *MPFailOption) Subtype() MPTCPSubtype { return SubMPFail }

// WireLen implements Option.
func (o *MPFailOption) WireLen() int { return 12 }

// String implements Option.
func (o *MPFailOption) String() string { return fmt.Sprintf("mp_fail[dseq=%d]", o.DataSeq) }

// FastcloseOption aborts the whole MPTCP connection (the multipath analogue
// of RST).
type FastcloseOption struct {
	ReceiverKey uint64
}

// Kind implements Option.
func (o *FastcloseOption) Kind() OptionKind { return OptMPTCP }

// Subtype implements Option.
func (o *FastcloseOption) Subtype() MPTCPSubtype { return SubFastclose }

// WireLen implements Option.
func (o *FastcloseOption) WireLen() int { return 12 }

// String implements Option.
func (o *FastcloseOption) String() string { return fmt.Sprintf("fastclose[k=%x]", o.ReceiverKey) }

// OptionsWireLen returns the total encoded size of a set of options including
// the padding required to reach a 4-byte boundary.
func OptionsWireLen(opts []Option) int {
	n := 0
	for _, o := range opts {
		n += o.WireLen()
	}
	if rem := n % 4; rem != 0 {
		n += 4 - rem
	}
	return n
}

// MaxOptionSpace is the maximum TCP option space in bytes (header length is a
// 4-bit word count, so 60-byte header minus the fixed 20 bytes).
const MaxOptionSpace = 40

// FitsOptionSpace reports whether the options fit the 40-byte TCP option
// space. Callers must check this before emitting a segment; the encoder
// rejects oversized option sets.
func FitsOptionSpace(opts []Option) bool { return OptionsWireLen(opts) <= MaxOptionSpace }

// SortSACKBlocks orders SACK blocks by left edge (ascending) in place, by
// insertion: the receiver's list is sorted except for the one merged block it
// has just appended, so a call is one pass and a short shift, with neither
// the closure nor the reflection-based swapper a generic slice sort builds on
// every call. Left edges of disjoint blocks are distinct, so the order is
// unique.
func SortSACKBlocks(blocks []SACKBlock) {
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j].Left.LessThan(blocks[j-1].Left); j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
}
