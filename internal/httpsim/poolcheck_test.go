//go:build poolcheck

package httpsim

import (
	"strings"
	"testing"
)

// TestPoolcheckPoisonsRecycledStructs: under poolcheck a flow or serverConn
// lies poisoned on its free list, so a stale call to one of its handler
// methods panics instead of acting for the struct's next user. (A flow's
// Writable and a serverConn's Established do nothing.)
func TestPoolcheckPoisonsRecycledStructs(t *testing.T) {
	sh := newShard(t)
	fl := sh.startFlow(t, sh.pool(t, 80))
	sh.quiesce(t)
	sc := peek(&sh.free.conns)
	if peek(&sh.free.flows) != fl {
		t.Fatal("the finished flow is not on the free list")
	}
	for name, call := range map[string]func(){
		"flow.Readable":       fl.Readable,
		"flow.Established":    fl.Established,
		"flow.Closed":         func() { fl.Closed(nil) },
		"serverConn.Readable": sc.Readable,
		"serverConn.Writable": sc.Writable,
		"serverConn.Closed":   func() { sc.Closed(nil) },
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
