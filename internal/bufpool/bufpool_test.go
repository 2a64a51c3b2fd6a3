package bufpool

import (
	"sync"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	h0, m0 := hits.Value(), misses.Value()
	b := Get(1500)
	if len(b) != 1500 {
		t.Fatalf("Get(1500) len = %d", len(b))
	}
	if cap(b) != 2048 {
		t.Fatalf("Get(1500) cap = %d, want 2048", cap(b))
	}
	// On a fresh pool this Get is a miss; with -count>1 a buffer left over
	// from an earlier run can make it a hit. Either way it must be counted.
	if h, m := hits.Value(), misses.Value(); m == m0 && h == h0 {
		t.Error("first Get counted neither a hit nor a miss")
	}
	for i := range b {
		b[i] = byte(i)
	}
	Put(b)
	b2 := Get(2048)
	if cap(b2) != 2048 {
		t.Fatalf("Get(2048) cap = %d", cap(b2))
	}
	for i := 0; i < 64; i++ {
		if hits.Value() != h0 {
			return
		}
		// The sync.Pool may drop the buffer between Put and Get (it does so
		// deliberately for a fraction of Puts under the race detector), so
		// keep cycling: with intact class bookkeeping a hit lands almost
		// immediately, while a systematic miss means Put filed the buffer
		// under the wrong class.
		Put(b2)
		b2 = Get(2048)
	}
	t.Error("Get after Put never counted a hit")
}

func TestSizeClassEdges(t *testing.T) {
	for _, n := range []int{1, 1024, 1025, 4096, 1 << 20} {
		b := Get(n)
		if len(b) != n {
			t.Errorf("Get(%d) len = %d", n, len(b))
		}
		if cap(b)&(cap(b)-1) != 0 {
			t.Errorf("Get(%d) cap %d not a power of two", n, cap(b))
		}
		Put(b)
	}
	// Oversized requests are plain allocations and must not panic on Put.
	huge := Get(1<<26 + 1)
	if len(huge) != 1<<26+1 {
		t.Fatalf("oversized Get len = %d", len(huge))
	}
	Put(huge)
	if Get(0) != nil {
		t.Error("Get(0) should be nil")
	}
	Put(nil)
	// Foreign buffers (non-class capacity) are silently dropped.
	Put(make([]byte, 100, 100))
}

// TestConcurrentGetPut exercises the pool from many goroutines under -race:
// buffers handed out concurrently must never be shared.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 512 + (g*37+i)%8192
				b := Get(n)
				for j := range b {
					b[j] = byte(g)
				}
				for j := range b {
					if b[j] != byte(g) {
						t.Errorf("buffer shared across goroutines")
						return
					}
				}
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}
