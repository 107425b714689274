package packet

import (
	"reflect"
	"testing"
	"unsafe"
)

// arenaKinds lists every option kind the arena stores, plus the three backing
// stores (SACK blocks, MP_JOIN HMAC bytes, REMOVE_ADDR ids) a kind can
// exhaust before it runs out of option slots. n options are appended; the
// first resident of them fit the arena, the rest must come from the heap.
// make(i) is the i-th distinct option of the kind, in a form Encode∘Decode
// reproduces exactly and — where the kind has optional fields — the short
// one, so a slot handed out unzeroed shows up as a value mismatch.
var arenaKinds = []struct {
	name        string
	n, resident int
	make        func(i int) Option
}{
	{"mss", 3, 2, func(i int) Option { return &MSSOption{MSS: uint16(1000 + i)} }},
	{"window scale", 3, 2, func(i int) Option { return &WindowScaleOption{Shift: uint8(1 + i)} }},
	{"timestamps", 3, 2, func(i int) Option { return &TimestampsOption{Val: uint32(10 + i), Echo: uint32(20 + i)} }},
	{"sack permitted", 3, 2, func(int) Option { return &SACKPermittedOption{} }},
	{"sack", 3, 2, func(i int) Option { return &SACKOption{Blocks: sackBlocks(i, 1)} }},
	{"sack block store", 2, 1, func(i int) Option { return &SACKOption{Blocks: sackBlocks(i, 5)} }},
	{"mp_capable", 3, 2, func(i int) Option { return &MPCapableOption{SenderKey: uint64(0x1100 + i)} }},
	{"mp_join", 3, 2, func(i int) Option {
		return &MPJoinOption{Phase: JoinSYN, ReceiverToken: uint32(70 + i), SenderNonce: uint32(80 + i)}
	}},
	{"mp_join hmac store", 3, 2, func(i int) Option {
		return &MPJoinOption{Phase: JoinACK, SenderHMAC: filled(20, byte(1+i))}
	}},
	{"dss", 5, 4, func(i int) Option { return &DSSOption{DataFIN: i%2 == 0} }},
	{"add_addr", 5, 4, func(i int) Option { return &AddAddrOption{AddrID: uint8(1 + i), Addr: MakeAddr(10, 0, byte(i), 1)} }},
	{"remove_addr", 3, 2, func(i int) Option { return &RemoveAddrOption{AddrIDs: filled(1, byte(1+i))} }},
	{"remove_addr id store", 2, 1, func(i int) Option { return &RemoveAddrOption{AddrIDs: filled(10, byte(1+i))} }},
	{"mp_prio", 3, 2, func(i int) Option { return &MPPrioOption{AddrID: uint8(1 + i), Backup: i%2 == 0} }},
	{"mp_fail", 3, 2, func(i int) Option { return &MPFailOption{DataSeq: DataSeq(500 + i)} }},
	{"fastclose", 3, 2, func(i int) Option { return &FastcloseOption{ReceiverKey: uint64(900 + i)} }},
}

func sackBlocks(i, n int) []SACKBlock {
	bl := make([]SACKBlock, n)
	for j := range bl {
		bl[j] = SACKBlock{Left: SeqNum(1000*i + 10*j + 1), Right: SeqNum(1000*i + 10*j + 9)}
	}
	return bl
}

func filled(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// inArena reports whether the option, and the backing array of its slice
// field if it has one, live inside the segment's arena.
func inArena(s *Segment, o Option) bool {
	base := uintptr(unsafe.Pointer(s.optArena))
	within := func(p uintptr) bool { return p >= base && p < base+unsafe.Sizeof(*s.optArena) }
	if !within(reflect.ValueOf(o).Pointer()) {
		return false
	}
	switch opt := o.(type) {
	case *SACKOption:
		return within(reflect.ValueOf(opt.Blocks).Pointer())
	case *MPJoinOption:
		return opt.SenderHMAC == nil || within(reflect.ValueOf(opt.SenderHMAC).Pointer())
	case *RemoveAddrOption:
		return within(reflect.ValueOf(opt.AddrIDs).Pointer())
	}
	return true
}

// poison overwrites every field of the value, and every element a slice
// field points at, with a non-zero pattern.
func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xa5a5a5a5a5a5a5a5 >> (64 - v.Type().Bits()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poison(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i))
		}
	default:
		panic("poison: unhandled kind " + v.Kind().String())
	}
}

// TestArenaFallbackAndReuse stuffs one segment with more options of a kind
// than the arena has room for, by both ways options enter a segment, and
// checks that the overflow comes correct from the heap, that no two options
// share storage, and that the released segment serves its slots again,
// zeroed, on its next use.
func TestArenaFallbackAndReuse(t *testing.T) {
	src, dst := MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 1, 2)
	for _, k := range arenaKinds {
		k := k
		options := func(first int) []Option {
			opts := make([]Option, k.n)
			for i := range opts {
				opts[i] = k.make(first + i)
			}
			return opts
		}
		fillers := map[string]func(t *testing.T, first int) *Segment{
			"AppendOptionCopy": func(t *testing.T, first int) *Segment {
				s := NewSegment()
				for _, o := range options(first) {
					s.AppendOptionCopy(o)
					poison(reflect.ValueOf(o).Elem()) // the copy must not alias its source
				}
				return s
			},
		}
		if OptionsWireLen(options(0)) <= MaxOptionSpace {
			fillers["Decode"] = func(t *testing.T, first int) *Segment {
				wire, err := Encode(&Segment{Flags: FlagACK, Options: options(first)})
				if err != nil {
					t.Fatal(err)
				}
				s, err := Decode(src, dst, append([]byte(nil), wire...))
				ReleaseWire(wire)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}
		check := func(t *testing.T, s *Segment, first int) {
			t.Helper()
			if len(s.Options) != k.n {
				t.Fatalf("%d options, want %d", len(s.Options), k.n)
			}
			// Poison from the back: each option must leave the ones before it
			// (and, checked first, the whole list) intact.
			for j := k.n; j >= 0; j-- {
				if j < k.n {
					poison(reflect.ValueOf(s.Options[j]).Elem())
				}
				for i := 0; i < j; i++ {
					if want := k.make(first + i); !reflect.DeepEqual(s.Options[i], want) {
						t.Fatalf("option %d = %#v, want %#v (after poisoning option %d of %d)", i, s.Options[i], want, j, k.n)
					}
				}
			}
			for i, o := range s.Options {
				if got, want := inArena(s, o), i < k.resident; got != want {
					t.Errorf("option %d in arena = %v, want %v", i, got, want)
				}
			}
		}
		for name, fill := range fillers {
			fill := fill
			t.Run(k.name+"/"+name, func(t *testing.T) {
				s := fill(t, 0)
				check(t, s, 0)
				s.Release()
				r := fill(t, 1)
				defer r.Release()
				if r != s {
					// The pool may drop a segment (always possible, routine
					// under -race); the fallback half above has still run.
					t.Skip("sync.Pool did not hand the released segment back")
				}
				check(t, r, 1)
			})
		}
	}
}

// TestHandshakeOptionsBuiltInArena: the typed appenders take handshake
// options by value and build them in the segment's arena, so a SYN with its
// MSS, SACK-permitted, window-scale, MP_CAPABLE and MP_JOIN options costs no
// heap object beside the segment.
func TestHandshakeOptionsBuiltInArena(t *testing.T) {
	mac := filled(20, 7)
	seg := NewSegment()
	build := func() {
		// What Release does to the options, without the segment pool (the
		// race detector makes sync.Pool drop objects at random).
		seg.Options = seg.Options[:0]
		seg.arena().reset()
		seg.AppendMSS(1460)
		seg.AppendSACKPermitted()
		seg.AppendWindowScale(7)
		seg.AppendMPCapable(MPCapableOption{ChecksumRequired: true, SenderKey: 0xabc, ReceiverKey: 0xdef, HasReceiverKey: true})
		seg.AppendMPJoin(MPJoinOption{Phase: JoinACK, AddrID: 2, SenderHMAC: mac})
	}
	build()
	for _, o := range seg.Options {
		if !inArena(seg, o) {
			t.Errorf("%T built outside the arena", o)
		}
	}
	join := seg.MPTCPOption(SubMPJoin).(*MPJoinOption)
	if !reflect.DeepEqual(join.SenderHMAC, mac) || &join.SenderHMAC[0] == &mac[0] {
		t.Errorf("MP_JOIN HMAC %v: want a copy of %v", join.SenderHMAC, mac)
	}
	if mpc := seg.MPTCPOption(SubMPCapable).(*MPCapableOption); mpc.SenderKey != 0xabc || !mpc.HasReceiverKey || mpc.WireLen() != 20 {
		t.Errorf("MP_CAPABLE came out as %+v", mpc)
	}
	if avg := testing.AllocsPerRun(200, build); avg != 0 {
		t.Fatalf("building the handshake options allocates %.1f times per segment, want 0", avg)
	}
	seg.Release()
}
