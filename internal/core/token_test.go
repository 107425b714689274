package core

import (
	"testing"

	"mptcpgo/internal/sim"
)

// sliceTokenTable is the token table as it was before its chains were
// linked by index: one slice per bucket, appended to and shifted in place.
// It is the reference TokenTable must answer exactly as.
type sliceTokenTable struct {
	buckets [tokenBuckets][]sliceTokenEntry
	count   int
}

type sliceTokenEntry struct {
	token uint32
	conn  *Connection
}

func (r *sliceTokenTable) chain(token uint32) []sliceTokenEntry { return r.buckets[token%tokenBuckets] }

func (r *sliceTokenTable) Contains(token uint32) bool { return r.index(token) >= 0 }

func (r *sliceTokenTable) index(token uint32) int {
	for i, e := range r.chain(token) {
		if e.token == token {
			return i
		}
	}
	return -1
}

func (r *sliceTokenTable) Insert(token uint32, conn *Connection) bool {
	if r.index(token) >= 0 {
		return false
	}
	b := token % tokenBuckets
	r.buckets[b] = append(r.buckets[b], sliceTokenEntry{token: token, conn: conn})
	r.count++
	return true
}

func (r *sliceTokenTable) Compares(token uint32) int {
	if i := r.index(token); i >= 0 {
		return i + 1
	}
	return len(r.chain(token))
}

func (r *sliceTokenTable) Lookup(token uint32) *Connection {
	if i := r.index(token); i >= 0 {
		return r.chain(token)[i].conn
	}
	return nil
}

func (r *sliceTokenTable) Remove(token uint32) {
	if i := r.index(token); i >= 0 {
		b := token % tokenBuckets
		r.buckets[b] = append(r.buckets[b][:i], r.buckets[b][i+1:]...)
		r.count--
	}
}

// tokenPair drives a TokenTable and the reference side by side.
type tokenPair struct {
	t   *testing.T
	got *TokenTable
	ref sliceTokenTable
}

// check requires the two tables to answer every query about token alike.
func (p *tokenPair) check(token uint32) {
	p.t.Helper()
	if g, w := p.got.Contains(token), p.ref.Contains(token); g != w {
		p.t.Fatalf("Contains(%d) = %v, reference %v", token, g, w)
	}
	if g, w := p.got.Compares(token), p.ref.Compares(token); g != w {
		p.t.Fatalf("Compares(%d) = %d, reference %d", token, g, w)
	}
	if g, w := p.got.Lookup(token), p.ref.Lookup(token); g != w {
		p.t.Fatalf("Lookup(%d) = %p, reference %p", token, g, w)
	}
	if g, w := p.got.Len(), p.ref.count; g != w {
		p.t.Fatalf("Len = %d, reference %d", g, w)
	}
}

func (p *tokenPair) insert(token uint32, conn *Connection) {
	p.t.Helper()
	if g, w := p.got.Insert(token, conn), p.ref.Insert(token, conn); g != w {
		p.t.Fatalf("Insert(%d) = %v, reference %v", token, g, w)
	}
	p.check(token)
}

func (p *tokenPair) remove(token uint32) {
	p.t.Helper()
	p.got.Remove(token)
	p.ref.Remove(token)
	p.check(token)
}

// FuzzTokenTable: any sequence of inserts and removes over 256 tokens (eight
// to a bucket, so chains grow long, shrink from any position and outgrow the
// inline nodes) leaves TokenTable answering Contains, Compares, Lookup and
// Len exactly as the slice-chain reference does, after every operation.
func FuzzTokenTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 33, 0, 65, 1, 33, 2, 65, 0, 97, 3, 1})
	f.Add([]byte{0, 7, 0, 39, 0, 71, 1, 7, 1, 39, 1, 71, 0, 7, 4, 39})
	seq := make([]byte, 0, 1024)
	for i := 0; i < 256; i++ {
		seq = append(seq, 0, byte(i*37))
	}
	for i := 0; i < 256; i += 3 {
		seq = append(seq, 1, byte(i*37))
	}
	f.Add(seq)
	var conns [5]Connection
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := &tokenPair{t: t, got: NewTokenTable()}
		for i := 0; i+1 < len(ops); i += 2 {
			token := uint32(ops[i+1])
			switch ops[i] % 5 {
			case 0, 1:
				p.insert(token, &conns[ops[i]/5%byte(len(conns))])
			case 2, 3:
				p.remove(token)
			default:
				p.check(token)
			}
		}
		for token := uint32(0); token < 256; token++ {
			p.check(token)
		}
	})
}

// TestTokenTableFig10Draws: 1000 tokens drawn and inserted in Figure 10's
// order (GenerateUniqueKey, then Insert) chain exactly as in the reference,
// and so do the probes Figure 10 counts; once the table has held them all,
// removing a third and inserting as many again reuses the freed nodes, so a
// warm table's insert allocates nothing.
func TestTokenTableFig10Draws(t *testing.T) {
	rng := sim.NewRNG(42)
	p := &tokenPair{t: t, got: NewTokenTable()}
	var tokens []uint32
	for i := 0; i < 1000; i++ {
		_, token := p.got.GenerateUniqueKey(rng)
		if p.ref.Contains(token) {
			t.Fatalf("draw %d: GenerateUniqueKey returned %d, which the table holds", i, token)
		}
		p.insert(token, nil)
		tokens = append(tokens, token)
	}
	for i := 0; i < 1000; i++ {
		p.check(GenerateKey(rng).Token())
	}
	for i := 0; i < len(tokens); i += 3 {
		p.remove(tokens[i])
	}
	grown := len(p.got.nodes)
	for i := 0; i < len(tokens); i += 3 {
		_, token := p.got.GenerateUniqueKey(rng)
		p.insert(token, nil)
	}
	for _, token := range tokens {
		p.check(token)
	}
	if len(p.got.nodes) != grown {
		t.Fatalf("the node array grew from %d to %d while freed nodes waited", grown, len(p.got.nodes))
	}
	token := tokens[1]
	if avg := testing.AllocsPerRun(100, func() {
		p.got.Remove(token)
		p.got.Insert(token, nil)
	}); avg != 0 {
		t.Fatalf("a remove and insert on a warm table allocate %.1f objects; want 0", avg)
	}
}
