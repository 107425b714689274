package core

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"testing"

	"mptcpgo/internal/sim"
)

func TestTokenAndIDSNDeterministic(t *testing.T) {
	k := Key(0x0102030405060708)
	if k.Token() != Key(0x0102030405060708).Token() {
		t.Fatal("token must be a pure function of the key")
	}
	token, idsn := k.TokenAndIDSN()
	if idsn == 0 && token == 0 {
		t.Fatal("derivations should not be trivially zero")
	}
	if token != k.Token() {
		t.Fatal("Token must be TokenAndIDSN's token")
	}
	// RFC 6824: the token is the top 32 bits of SHA-1(key), the IDSN the
	// bottom 64.
	sum := sha1.Sum(k.bytes())
	if token != binary.BigEndian.Uint32(sum[:4]) || uint64(idsn) != binary.BigEndian.Uint64(sum[12:]) {
		t.Fatal("token or IDSN is not the RFC 6824 slice of the key's digest")
	}
	if Key(1).Token() == Key(2).Token() {
		t.Fatal("distinct keys should produce distinct tokens (SHA-1)")
	}
}

func TestJoinHMACSymmetryAndValidation(t *testing.T) {
	clientKey, serverKey := Key(111), Key(222)
	clientNonce, serverNonce := uint32(0xaaaa), uint32(0xbbbb)

	// The HMAC the server sends must be verifiable by the client computing
	// with the arguments swapped the same way.
	serverMAC := joinHMAC(serverKey, clientKey, serverNonce, clientNonce)
	clientExpectation := joinHMAC(serverKey, clientKey, serverNonce, clientNonce)
	if !hmacEqual(serverMAC[:], clientExpectation[:]) {
		t.Fatal("identical computation must produce identical MACs")
	}
	// Any change in keys or nonces must change the MAC (blind spoofing fails).
	if serverMAC == joinHMAC(serverKey, Key(333), serverNonce, clientNonce) {
		t.Fatal("MAC must depend on both keys")
	}
	if serverMAC == joinHMAC(serverKey, clientKey, serverNonce, clientNonce+1) {
		t.Fatal("MAC must depend on the nonces")
	}
	if len(truncatedHMAC(serverMAC[:], 8)) != 8 {
		t.Fatal("truncation length wrong")
	}
}

// referenceJoinHMAC is the crypto/hmac construction joinHMAC replaced.
func referenceJoinHMAC(keyLocal, keyRemote Key, nonceLocal, nonceRemote uint32) []byte {
	mac := hmac.New(sha1.New, append(keyLocal.bytes(), keyRemote.bytes()...))
	var msg [8]byte
	binary.BigEndian.PutUint32(msg[0:4], nonceLocal)
	binary.BigEndian.PutUint32(msg[4:8], nonceRemote)
	mac.Write(msg[:])
	return mac.Sum(nil)
}

// TestJoinHMACMatchesCryptoHMAC: the stack computation is HMAC-SHA1, byte for
// byte, on inputs nobody chose.
func TestJoinHMACMatchesCryptoHMAC(t *testing.T) {
	rng := sim.NewRNG(24)
	for i := 0; i < 10000; i++ {
		kl, kr := Key(rng.Uint64()), Key(rng.Uint64())
		nl, nr := rng.Uint32(), rng.Uint32()
		got, want := joinHMAC(kl, kr, nl, nr), referenceJoinHMAC(kl, kr, nl, nr)
		if !bytes.Equal(got[:], want) {
			t.Fatalf("joinHMAC(%#x, %#x, %#x, %#x) = %x, crypto/hmac says %x", kl, kr, nl, nr, got, want)
		}
	}
}

func TestJoinHMACAllocatesNothing(t *testing.T) {
	var mac [sha1.Size]byte
	if avg := testing.AllocsPerRun(1000, func() { mac = joinHMAC(Key(1), Key(2), 3, 4) }); avg != 0 {
		t.Fatalf("joinHMAC allocates %.1f objects per call; want 0", avg)
	}
	_ = mac
}

func TestTokenTable(t *testing.T) {
	table := NewTokenTable()
	rng := sim.NewRNG(3)
	conn := &Connection{}
	key, token := table.GenerateUniqueKey(rng)
	if wantToken, wantIDSN := key.Key.TokenAndIDSN(); token != wantToken || key.IDSN != wantIDSN {
		t.Fatal("GenerateUniqueKey must return the key's own token and IDSN")
	}
	if !table.Insert(token, conn) {
		t.Fatal("first insert must succeed")
	}
	if table.Insert(token, conn) {
		t.Fatal("duplicate insert must fail")
	}
	if table.Lookup(token) != conn {
		t.Fatal("lookup must return the registered connection")
	}
	if table.Len() != 1 {
		t.Fatalf("Len = %d", table.Len())
	}
	table.Remove(token)
	if table.Lookup(token) != nil || table.Len() != 0 {
		t.Fatal("remove did not clean up")
	}
}

func TestGenerateUniqueKeyAvoidsCollisions(t *testing.T) {
	table := NewTokenTable()
	rng := sim.NewRNG(4)
	seen := make(map[uint32]bool)
	for i := 0; i < 500; i++ {
		_, token := table.GenerateUniqueKey(rng)
		if seen[token] {
			t.Fatal("GenerateUniqueKey returned a token already in the table")
		}
		seen[token] = true
		table.Insert(token, nil)
	}
	if table.Len() != 500 {
		t.Fatalf("table should hold 500 tokens, has %d", table.Len())
	}
}
