package packet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/pool"
)

// TestPayloadRecyclesWhereItCameFrom: Release hands an owned payload back to
// the pool front it was attached from, or to the shared pool when it was
// attached without one; a clone's copy is the shared pool's whatever the
// original's was, and a released segment remembers no origin.
func TestPayloadRecyclesWhereItCameFrom(t *testing.T) {
	var l pool.Local
	defer l.Flush()

	shared := pool.Stats()
	s := NewSegment()
	buf := l.Bytes(1000)
	s.AttachPayloadFrom(&l, buf)
	c := s.Clone()
	s.Release()
	if got := pool.Stats(); got.Puts != shared.Puts || got.Drops != shared.Drops {
		t.Fatal("a payload attached from a Local was recycled to the shared pool")
	}
	if s.payloadFrom != nil || s.ownsPayload {
		t.Fatal("a released segment still carries its payload's origin")
	}
	// The Local is a LIFO: what Release put there is what it hands out next.
	if again := l.Bytes(1000); &again[0] != &buf[0] {
		t.Fatal("a payload attached from a Local did not go back to it")
	} else {
		l.Recycle(again)
	}

	if c.payloadFrom != nil || !c.ownsPayload || &c.Payload[0] == &buf[0] {
		t.Fatal("a clone must own a shared-pool copy of the payload")
	}
	shared = pool.Stats()
	c.Release()
	if got := pool.Stats(); got.Puts != shared.Puts+1 {
		t.Fatal("a clone's payload was not recycled to the shared pool")
	}

	s = NewSegment() // as a rule one of the two structs released above
	s.AttachPayload(pool.Bytes(1000))
	shared = pool.Stats()
	s.Release()
	if got := pool.Stats(); got.Puts != shared.Puts+1 {
		t.Fatal("a payload attached with AttachPayload was not recycled to the shared pool")
	}
}

// TestHopIsTheHoldingLinksAlone: a segment's Hop belongs to the link that
// holds it. Copies start without it, releasing a held segment panics, and a
// released segment has none.
func TestHopIsTheHoldingLinksAlone(t *testing.T) {
	next := NewSegment()
	defer next.Release()
	s := NewSegment()
	s.Payload = []byte("data")
	s.Hop = Hop{Next: next, Size: 100, Done: time.Second, At: 2 * time.Second, Seq: 7}
	for name, c := range map[string]*Segment{"CloneHeader": s.CloneHeader(), "Clone": s.Clone()} {
		if c.Hop != (Hop{}) {
			t.Errorf("%s copied the link's state: %+v", name, c.Hop)
		}
		c.Release()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing a segment a link holds did not panic")
			}
		}()
		s.Release()
	}()
	s.Hop.Size = 0 // delivered: what is left is stale
	s.Release()
	if s.Hop != (Hop{}) {
		t.Fatalf("a released segment keeps a hop: %+v", s.Hop)
	}
}

// segmentSink keeps the segments TestPoolMissIsOneObject builds on the heap.
var segmentSink *Segment

// TestPoolMissIsOneObject: a segment the pool has to make costs exactly one
// heap object, its option arena and first option store included, whether it
// then carries a SYN's five options or a data segment's DSS, SACK and
// timestamps. The pool's New is called directly: sync.Pool may hand back a
// recycled segment, and under the race detector drops them at random.
func TestPoolMissIsOneObject(t *testing.T) {
	blocks := []SACKBlock{{Left: 100, Right: 200}, {Left: 300, Right: 400}, {Left: 500, Right: 600}}
	for _, tc := range []struct {
		name  string
		build func(s *Segment)
	}{
		{"syn", func(s *Segment) {
			s.AppendMSS(1460)
			s.AppendSACKPermitted()
			s.AppendTimestamps(1, 0)
			s.AppendWindowScale(7)
			s.AppendMPCapable(MPCapableOption{SenderKey: 0xabc})
		}},
		{"data", func(s *Segment) {
			dss := s.AppendDSS()
			dss.HasDataACK, dss.DataACK = true, 7
			s.AppendSACK(blocks)
			s.AppendTimestamps(1, 2)
		}},
	} {
		avg := testing.AllocsPerRun(100, func() {
			s := newPooledSegment().(*Segment)
			tc.build(s)
			segmentSink = s
		})
		if avg != 1 {
			t.Errorf("%s: a fresh segment costs %.1f heap objects, want 1", tc.name, avg)
		}
		for _, o := range segmentSink.Options {
			if !inArena(segmentSink, o) {
				t.Errorf("%s: %T built outside the arena", tc.name, o)
			}
		}
	}
	segmentSink = nil
}

// TestSegmentsComeFromNewSegment: outside this package, no program file
// builds a Segment as a literal or with new. Such a segment has no option
// arena and no option store; once released it sits in the pool, and its next
// user pays an arena and the growth of its option list.
// bench/perf/layer_packet.go is exempt: its encode/decode probe builds one
// segment it never releases, and bench/perf is held fixed so that runs of
// different commits compare.
func TestSegmentsComeFromNewSegment(t *testing.T) {
	const root = "../.."
	exempt := map[string]bool{"internal/packet": true, "bench/perf/layer_packet.go": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if exempt[rel] || rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if exempt[rel] || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"mptcpgo/internal/packet"` {
				name = "packet"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		isSegment := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Segment" {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isSegment(n.Type) {
					t.Errorf("%s: a %s.Segment literal; take it from %s.NewSegment", fset.Position(n.Pos()), name, name)
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 && isSegment(n.Args[0]) {
					t.Errorf("%s: new(%s.Segment); take it from %s.NewSegment", fset.Position(n.Pos()), name, name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
