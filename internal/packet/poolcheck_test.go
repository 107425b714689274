//go:build poolcheck

package packet

import "testing"

// TestPoolcheckPoisonsReleasedSegments: under poolcheck a released segment's
// header reads poison, not zeros, an option its list still holds panics when
// used, an option pointer kept past Release reads poison, and NewSegment
// hands the struct out zeroed again.
func TestPoolcheckPoisonsReleasedSegments(t *testing.T) {
	s := NewSegment()
	s.Seq, s.Flags = 1, FlagACK
	dss := s.AppendDSS()
	dss.HasDataACK, dss.DataACK = true, 7
	stale := s.Options
	s.Release()
	if s.Seq != poison32 || s.Ack != poison32 || s.Flags != poison8 || s.Src.Addr != poison32 {
		t.Fatalf("released header reads seq %#x ack %#x flags %#x src %v; want poison", s.Seq, s.Ack, s.Flags, s.Src)
	}
	if dss.DataACK != poison64 || dss.DataSeq != poison64 {
		t.Fatalf("kept DSS option reads DATA_ACK %#x, DSN %#x; want poison", dss.DataACK, dss.DataSeq)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an option of a released segment's list did not panic when used")
			}
		}()
		_ = stale[0].Kind()
	}()
	again := NewSegment()
	if again.Seq != 0 || again.Flags != 0 || len(again.Options) != 0 || again.Src != (Endpoint{}) {
		t.Fatalf("NewSegment returned a segment with header %v/%v/%v and %d options; want zero", again.Src, again.Seq, again.Flags, len(again.Options))
	}
	again.Release()
}
