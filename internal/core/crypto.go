// Package core implements Multipath TCP as described in the paper: the
// MP_CAPABLE/MP_JOIN handshakes with keys, tokens and HMAC validation, data
// sequence mappings with optional checksums, explicit data-level
// acknowledgements and DATA_FIN, the shared connection-level receive buffer
// with the four reassembly algorithms, fallback to regular TCP, and the four
// sender-side mechanisms of §4.2 (opportunistic retransmission, penalizing
// slow subflows, buffer autotuning and congestion-window capping).
//
// The package builds on internal/tcp (one Endpoint per subflow) and presents
// a byte-stream API equivalent to the TCP one, so unmodified "applications"
// (the example programs, the HTTP workload generator) work over either.
package core

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"

	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// Key is the 64-bit key exchanged in MP_CAPABLE (§3.2); it authenticates the
// addition of new subflows for the lifetime of the connection.
type Key uint64

// GenerateKey draws a new random key.
func GenerateKey(rng *sim.RNG) Key { return Key(rng.Uint64()) }

// keyBytes returns the key in network byte order.
func (k Key) bytes() []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k))
	return b[:]
}

// TokenAndIDSN derives both per-key values from one SHA-1 digest of the key,
// as in RFC 6824: the token, the 32-bit connection identifier, is its most
// significant 32 bits and the initial data sequence number its least
// significant 64. MP_JOIN SYNs carry the receiver's token so the passive
// opener can locate the connection the new subflow belongs to.
func (k Key) TokenAndIDSN() (uint32, packet.DataSeq) {
	sum := sha1.Sum(k.bytes())
	return binary.BigEndian.Uint32(sum[0:4]), packet.DataSeq(binary.BigEndian.Uint64(sum[12:20]))
}

// Token derives the key's token (TokenAndIDSN) on its own.
func (k Key) Token() uint32 {
	token, _ := k.TokenAndIDSN()
	return token
}

// joinHMAC computes the MP_JOIN authentication code: HMAC-SHA1 keyed with
// the concatenation of the two 64-bit keys over the two 32-bit nonces. It is
// HMAC by its definition (RFC 2104), H(K^opad || H(K^ipad || msg)), over two
// stack arrays: the 16-byte key is shorter than SHA-1's 64-byte block, so the
// padded key is the key followed by zeros, and nothing reaches the heap.
func joinHMAC(keyLocal, keyRemote Key, nonceLocal, nonceRemote uint32) [sha1.Size]byte {
	var inner [sha1.BlockSize + 8]byte
	var outer [sha1.BlockSize + sha1.Size]byte
	binary.BigEndian.PutUint64(inner[0:8], uint64(keyLocal))
	binary.BigEndian.PutUint64(inner[8:16], uint64(keyRemote))
	for i := 0; i < sha1.BlockSize; i++ {
		outer[i] = inner[i] ^ 0x5c
		inner[i] ^= 0x36
	}
	binary.BigEndian.PutUint32(inner[sha1.BlockSize:], nonceLocal)
	binary.BigEndian.PutUint32(inner[sha1.BlockSize+4:], nonceRemote)
	sum := sha1.Sum(inner[:])
	copy(outer[sha1.BlockSize:], sum[:])
	return sha1.Sum(outer[:])
}

// truncatedHMAC returns the first n bytes of an HMAC value.
func truncatedHMAC(h []byte, n int) []byte {
	if len(h) < n {
		return h
	}
	return h[:n]
}

// hmacEqual compares two MACs in constant time semantics (length-checked).
func hmacEqual(a, b []byte) bool {
	return hmac.Equal(a, b)
}
