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
// connections). As the kernel chains through a node inside each control
// block, the chains here link nodes of one array by index, so no insert
// allocates once the array has grown to the host's peak of tokens.
type TokenTable struct {
	// heads holds each bucket's first node as an index into nodes plus one;
	// 0 is an empty chain, and a node's next link is counted the same way.
	heads [tokenBuckets]int32
	// nodes holds every node, chained or free. It starts on inline and
	// grows by doubling.
	nodes []tokenNode
	// free is the node Remove freed last (plus one, 0 when none is), the
	// others linked through next: Insert takes it before it grows nodes.
	free   int32
	count  int
	inline [tokenNodesInline]tokenNode
}

// tokenNode is one token and its connection, linked to the next node of its
// chain, or of the free list.
type tokenNode struct {
	token uint32
	next  int32
	conn  *Connection
}

// tokenBuckets matches the small static hash the early kernel implementation
// used. tokenNodesInline is the table's first node array, one per bucket: a
// client host rarely holds more connections than that at once.
const (
	tokenBuckets     = 32
	tokenNodesInline = tokenBuckets
)

// NewTokenTable returns an empty table.
func NewTokenTable() *TokenTable {
	t := new(TokenTable)
	t.init()
	return t
}

// init readies an empty table in place. Its nodes start on its own inline
// array, so the table must not be copied afterwards.
func (t *TokenTable) init() { t.nodes = t.inline[:0] }

// Len returns the number of stored tokens.
func (t *TokenTable) Len() int { return t.count }

// node returns the node a link (index plus one) names.
func (t *TokenTable) node(link int32) *tokenNode { return &t.nodes[link-1] }

// find walks token's chain. It returns the link of the node that holds the
// token (0 when none does), the link of the node before it (of the chain's
// last node when none does; 0 for the head), and how many nodes it compared.
func (t *TokenTable) find(token uint32) (at, prev int32, compares int) {
	for at = t.heads[token%tokenBuckets]; at != 0; prev, at = at, t.node(at).next {
		compares++
		if t.node(at).token == token {
			return at, prev, compares
		}
	}
	return 0, prev, compares
}

// Contains reports whether the token is already in use. The scan walks the
// whole chain, which is what makes key generation slower on busy servers.
func (t *TokenTable) Contains(token uint32) bool {
	at, _, _ := t.find(token)
	return at != 0
}

// Insert adds a token at the end of its chain. It returns false if the token
// already exists.
func (t *TokenTable) Insert(token uint32, conn *Connection) bool {
	at, last, _ := t.find(token)
	if at != 0 {
		return false
	}
	at = t.free
	if at != 0 {
		t.free = t.node(at).next
	} else {
		if len(t.nodes) == cap(t.nodes) {
			grown := make([]tokenNode, len(t.nodes), max(2*cap(t.nodes), tokenNodesInline))
			copy(grown, t.nodes)
			t.nodes = grown
		}
		t.nodes = t.nodes[:len(t.nodes)+1]
		at = int32(len(t.nodes))
	}
	*t.node(at) = tokenNode{token: token, conn: conn}
	if last == 0 {
		t.heads[token%tokenBuckets] = at
	} else {
		t.node(last).next = at
	}
	t.count++
	return true
}

// Compares returns how many entries Contains(token) compares, the cost of
// one uniqueness probe that Figure 10 counts.
func (t *TokenTable) Compares(token uint32) int {
	_, _, compares := t.find(token)
	return compares
}

// Lookup returns the connection registered under token, or nil.
func (t *TokenTable) Lookup(token uint32) *Connection {
	if at, _, _ := t.find(token); at != 0 {
		return t.node(at).conn
	}
	return nil
}

// Remove deletes a token. The chain keeps its order, and the node goes to
// the free list cleared, so it does not keep the connection reachable.
func (t *TokenTable) Remove(token uint32) {
	at, prev, _ := t.find(token)
	if at == 0 {
		return
	}
	n := t.node(at)
	if prev == 0 {
		t.heads[token%tokenBuckets] = n.next
	} else {
		t.node(prev).next = n.next
	}
	*n = tokenNode{next: t.free}
	t.free = at
	t.count--
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
