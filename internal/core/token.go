package core

import (
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// TokenTable stores the tokens of established MPTCP connections on a host so
// that (a) newly generated keys can be verified to hash to a unique token, as
// §5.2 of the paper requires, and (b) MP_JOIN SYNs can be demultiplexed to
// the connection they belong to.
//
// The table deliberately mirrors the structure of the kernel implementation
// the paper measures: a small fixed-size bucket array with chained entries,
// so the cost of the uniqueness check grows with the number of established
// connections (the effect visible in Figure 10 for 100 and 1000
// connections).
type TokenTable struct {
	buckets [tokenBuckets][]tokenEntry
	// inline is the first backing store of the chains, tokenChainInline
	// entries each: a chain grows onto the heap past it as it grew from nil,
	// so a host pays for its chains once, not bucket by bucket as its
	// connections first land in them.
	inline [tokenBuckets * tokenChainInline]tokenEntry
	count  int
}

type tokenEntry struct {
	token uint32
	conn  *Connection
}

// tokenBuckets matches the small static hash the early kernel implementation
// used. tokenChainInline is the inline capacity of one chain: a client host
// rarely holds two connections whose tokens share a bucket.
const (
	tokenBuckets     = 32
	tokenChainInline = 1
)

// NewTokenTable returns an empty table.
func NewTokenTable() *TokenTable {
	t := new(TokenTable)
	for b := range t.buckets {
		lo := b * tokenChainInline
		t.buckets[b] = t.inline[lo : lo : lo+tokenChainInline]
	}
	return t
}

// Len returns the number of stored tokens.
func (t *TokenTable) Len() int { return t.count }

func (t *TokenTable) bucket(token uint32) int { return int(token % tokenBuckets) }

// Contains reports whether the token is already in use. The scan walks the
// whole chain, which is what makes key generation slower on busy servers.
func (t *TokenTable) Contains(token uint32) bool {
	for _, e := range t.buckets[t.bucket(token)] {
		if e.token == token {
			return true
		}
	}
	return false
}

// Insert adds a token. It returns false if the token already exists.
func (t *TokenTable) Insert(token uint32, conn *Connection) bool {
	if t.Contains(token) {
		return false
	}
	b := t.bucket(token)
	t.buckets[b] = append(t.buckets[b], tokenEntry{token: token, conn: conn})
	t.count++
	return true
}

// Compares returns how many entries Contains(token) compares, the cost of
// one uniqueness probe that Figure 10 counts.
func (t *TokenTable) Compares(token uint32) int {
	chain := t.buckets[t.bucket(token)]
	for i, e := range chain {
		if e.token == token {
			return i + 1
		}
	}
	return len(chain)
}

// Lookup returns the connection registered under token, or nil.
func (t *TokenTable) Lookup(token uint32) *Connection {
	for _, e := range t.buckets[t.bucket(token)] {
		if e.token == token {
			return e.conn
		}
	}
	return nil
}

// Remove deletes a token. The chain keeps its order, and the slot the shift
// vacates is cleared, so it does not keep the connection reachable.
func (t *TokenTable) Remove(token uint32) {
	b := t.bucket(token)
	chain := t.buckets[b]
	for i, e := range chain {
		if e.token == token {
			last := len(chain) - 1
			copy(chain[i:], chain[i+1:])
			chain[last] = tokenEntry{}
			t.buckets[b] = chain[:last]
			t.count--
			return
		}
	}
}

// DrawnKey is a key GenerateUniqueKey drew, with the IDSN that came out of
// the same digest as its token.
type DrawnKey struct {
	Key  Key
	IDSN packet.DataSeq
}

// GenerateUniqueKey draws keys until one hashes to a token not already in the
// table, exactly the procedure whose latency Figure 10 measures: one SHA-1
// digest per key drawn. It returns the key with its IDSN, and its token,
// without inserting it.
func (t *TokenTable) GenerateUniqueKey(rng *sim.RNG) (DrawnKey, uint32) {
	for {
		key := GenerateKey(rng)
		token, idsn := key.TokenAndIDSN()
		if !t.Contains(token) {
			return DrawnKey{Key: key, IDSN: idsn}, token
		}
	}
}
