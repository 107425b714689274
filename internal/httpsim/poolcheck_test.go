//go:build poolcheck

package httpsim

import (
	"strings"
	"testing"
)

// TestPoolcheckPoisonsRecycledStructs: under poolcheck a flow or serverConn
// lies poisoned on its free list, so a stale call to one of its methods
// panics instead of acting for the struct's next user.
func TestPoolcheckPoisonsRecycledStructs(t *testing.T) {
	sh := newShard(t)
	fl := sh.startFlow(t, sh.pool(t, 80))
	sh.quiesce(t)
	sc := peek(&sh.free.conns)
	if peek(&sh.free.flows) != fl {
		t.Fatal("the finished flow is not on the free list")
	}
	for name, call := range map[string]func(){
		"flow.onReadable":         fl.cb.readable,
		"flow.onEstablished":      fl.cb.established,
		"flow.onClosed":           func() { fl.cb.closed(nil) },
		"serverConn.onReadable":   sc.cb.readable,
		"serverConn.pumpResponse": sc.cb.writable,
		"serverConn.onClosed":     func() { sc.cb.closed(nil) },
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "use of a released httpsim.") {
					t.Errorf("stale %s: recovered %v, want a released-struct panic", name, r)
				}
			}()
			call()
		}()
	}
}
