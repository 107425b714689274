//go:build poolcheck

package pool

import "testing"

func TestPoolcheckPoisonsAndCatchesDoubleRelease(t *testing.T) {
	b := Bytes(1460)
	for i := range b {
		b[i] = 1
	}
	Recycle(b)
	for i, v := range b {
		if v != poison {
			t.Fatalf("byte %d is %#x after Recycle; want poison %#x", i, v, poison)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Recycle of the same buffer did not panic")
		}
	}()
	Recycle(b)
}
