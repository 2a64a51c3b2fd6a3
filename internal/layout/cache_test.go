package layout

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adr/internal/chunk"
)

// countingStore wraps a Store and counts Get calls — the "disk reads" the
// cache is supposed to absorb. delay simulates a slow disk so singleflight
// races are wide open.
type countingStore struct {
	Store
	gets  atomic.Int64
	delay time.Duration
}

func (s *countingStore) Get(dataset string, id chunk.ID) ([]byte, error) {
	s.gets.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.Store.Get(dataset, id)
}

func newCountedCache(t *testing.T, budget int64, delay time.Duration) (*CachedStore, *countingStore, *ChunkCache) {
	t.Helper()
	base := &countingStore{Store: newMemStore(), delay: delay}
	cache := NewChunkCache(budget)
	return NewCachedStore(base, cache), base, cache
}

// TestCacheHitPath: the second read of a chunk is served from memory.
func TestCacheHitPath(t *testing.T) {
	cs, base, cache := newCountedCache(t, 1<<20, 0)
	data := bytes.Repeat([]byte{42}, 1000)
	if err := cs.Store.Put("d", 1, data); err != nil { // seed beneath the cache
		t.Fatal(err)
	}
	got, hit, err := cs.GetCached("d", 1)
	if err != nil || hit || !bytes.Equal(got, data) {
		t.Fatalf("cold read: hit=%v err=%v", hit, err)
	}
	got, hit, err = cs.GetCached("d", 1)
	if err != nil || !hit || !bytes.Equal(got, data) {
		t.Fatalf("warm read: hit=%v err=%v", hit, err)
	}
	if n := base.gets.Load(); n != 1 {
		t.Fatalf("underlying reads = %d, want 1", n)
	}
	st := cache.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheSingleflight: N concurrent readers of one cold chunk issue
// exactly one disk read; every reader gets the payload.
func TestCacheSingleflight(t *testing.T) {
	cs, base, _ := newCountedCache(t, 1<<20, 20*time.Millisecond)
	data := bytes.Repeat([]byte{7}, 512)
	if err := cs.Store.Put("d", 3, data); err != nil {
		t.Fatal(err)
	}
	const readers = 32
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cs.Get("d", 3)
			if err != nil {
				errs <- err
			} else if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("wrong payload")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := base.gets.Load(); n != 1 {
		t.Fatalf("cold miss issued %d disk reads, want 1 (singleflight)", n)
	}
}

// TestCacheSingleflightError: a failing load reaches every waiter and is
// not cached — the next read retries the disk.
func TestCacheSingleflightError(t *testing.T) {
	cs, base, _ := newCountedCache(t, 1<<20, 5*time.Millisecond)
	// id 9 was never stored: the load fails.
	var wg sync.WaitGroup
	errCount := atomic.Int64{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cs.Get("d", 9); err != nil {
				errCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if errCount.Load() != 8 {
		t.Fatalf("%d/8 readers saw the error", errCount.Load())
	}
	if _, err := cs.Get("d", 9); err == nil {
		t.Fatal("error was cached as success")
	}
	if base.gets.Load() < 2 {
		t.Fatal("failed load was cached; retry never reached disk")
	}
}

// TestCacheInvalidationOnPut: a write-back through the cached store must be
// visible to the next read (no stale bytes), served as a hit.
func TestCacheInvalidationOnPut(t *testing.T) {
	cs, base, _ := newCountedCache(t, 1<<20, 0)
	v1 := []byte("version-1")
	v2 := []byte("version-2-longer")
	if err := cs.Put("out", 5, v1); err != nil {
		t.Fatal(err)
	}
	if got, _ := cs.Get("out", 5); !bytes.Equal(got, v1) {
		t.Fatalf("got %q", got)
	}
	// The §2.4 in-place output update: overwrite through the cache.
	if err := cs.Put("out", 5, v2); err != nil {
		t.Fatal(err)
	}
	got, hit, err := cs.GetCached("out", 5)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("after overwrite: got %q, err %v", got, err)
	}
	if !hit {
		t.Fatal("write-through Put should leave the new bytes resident")
	}
	if n := base.gets.Load(); n != 0 {
		t.Fatalf("%d disk reads; write-through should have served every read", n)
	}
}

// TestCacheInflightInvalidation: a Put racing an in-flight load must win —
// the flight's (possibly stale) bytes may be returned to its waiters but
// must not populate the cache over the newer write.
func TestCacheInflightInvalidation(t *testing.T) {
	cache := NewChunkCache(1 << 20)
	v1, v2 := []byte("old"), []byte("new")
	loadStarted := make(chan struct{})
	finishLoad := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cache.GetThrough("d", 1, func() ([]byte, error) {
			close(loadStarted)
			<-finishLoad
			return v1, nil
		})
	}()
	<-loadStarted
	cache.Put("d", 1, v2) // the write completes while the load is in flight
	close(finishLoad)
	<-done
	got, hit, err := cache.GetThrough("d", 1, func() ([]byte, error) {
		t.Fatal("should be resident")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(got, v2) {
		t.Fatalf("stale flight overwrote newer Put: got %q hit=%v err=%v", got, hit, err)
	}
}

// TestCacheStaleFlightTakesNoNewWaiters: a reader that starts after a
// completed Put must not join the older in-flight load and be served its
// pre-write bytes. The written payload is not resident afterwards (a Put
// above the budget/8 admission bound), so the late reader has to load for
// itself — and sees the store's new bytes.
func TestCacheStaleFlightTakesNoNewWaiters(t *testing.T) {
	old, written := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)
	writes := []struct {
		name  string
		write func(*ChunkCache)
	}{
		{"put above admission bound", func(c *ChunkCache) { c.Put("d", 1, written) }},
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			cache := NewChunkCache(64) // admits entries up to 8 bytes
			loadStarted := make(chan struct{})
			finishLoad := make(chan struct{})
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				cache.GetThrough("d", 1, func() ([]byte, error) {
					close(loadStarted)
					<-finishLoad
					return old, nil
				})
			}()
			<-loadStarted
			w.write(cache) // the store now holds written; the flight predates it

			lateDone := make(chan struct{})
			var got []byte
			var hit bool
			go func() {
				defer close(lateDone)
				got, hit, _ = cache.GetThrough("d", 1, func() ([]byte, error) { return written, nil })
			}()
			// On the parent the late reader blocks on the old flight, so let
			// that flight finish once the reader is done or has had time to
			// join it; the assertions do not depend on which.
			select {
			case <-lateDone:
			case <-time.After(50 * time.Millisecond):
			}
			close(finishLoad)
			<-lateDone
			<-leaderDone
			if hit || !bytes.Equal(got, written) {
				t.Fatalf("reader arriving after the write got %v (hit=%v), want its own load of %v", got[:1], hit, written[:1])
			}
			// The finished stale leader must not have removed the late
			// reader's flight slot or left its own behind.
			if _, hit, _ := cache.GetThrough("d", 1, func() ([]byte, error) { return written, nil }); hit {
				t.Fatal("read after both flights finished joined a leftover flight")
			}
		})
	}
}

// TestCacheEviction: inserting past the byte budget evicts from the LRU
// tail and the budget holds.
func TestCacheEviction(t *testing.T) {
	const budget = 8000
	cs, _, cache := newCountedCache(t, budget, 0)
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 900) }
	for i := 0; i < 12; i++ { // 12 * 900 > budget
		if err := cs.Store.Put("d", chunk.ID(i), payload(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Get("d", chunk.ID(i)); err != nil {
			t.Fatal(err)
		}
		if b := cache.stats().Bytes; b > budget {
			t.Fatalf("cache at %d bytes, budget %d", b, budget)
		}
	}
	st := cache.stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions past the budget")
	}
	// The oldest entries went first; the newest is still resident.
	if _, hit, _ := cs.GetCached("d", 11); !hit {
		t.Fatal("most recent entry evicted")
	}
	if _, hit, _ := cs.GetCached("d", 0); hit {
		t.Fatal("LRU tail survived past the budget")
	}
}

// TestCacheLRUOrder: touching an old entry protects it from the next
// eviction round.
func TestCacheLRUOrder(t *testing.T) {
	// 8 entries of 1000 bytes fill the budget exactly (and 1000 == budget/8
	// stays under the admission bar).
	cache := NewChunkCache(8000)
	load := func(b byte) func() ([]byte, error) {
		return func() ([]byte, error) { return bytes.Repeat([]byte{b}, 1000), nil }
	}
	for i := 0; i < 8; i++ {
		cache.GetThrough("d", chunk.ID(i), load(byte(i)))
	}
	cache.GetThrough("d", 0, load(0)) // touch 0: id 1 is now the LRU tail
	cache.GetThrough("d", 8, load(8)) // evicts 1, not 0
	if _, hit, _ := cache.GetThrough("d", 0, load(0)); !hit {
		t.Fatal("recently touched entry was evicted")
	}
	if _, hit, _ := cache.GetThrough("d", 1, load(1)); hit {
		t.Fatal("LRU victim still resident")
	}
}

// TestCacheAdmission: a payload larger than budget/8 bypasses the cache
// rather than flushing the hot set.
func TestCacheAdmission(t *testing.T) {
	cs, base, cache := newCountedCache(t, 8000, 0)
	small := bytes.Repeat([]byte{1}, 500)
	huge := bytes.Repeat([]byte{2}, 2000) // > 8000/8
	cs.Store.Put("d", 1, small)
	cs.Store.Put("d", 2, huge)
	cs.Get("d", 1)
	cs.Get("d", 2)
	cs.Get("d", 2)
	if _, hit, _ := cs.GetCached("d", 1); !hit {
		t.Fatal("small hot entry displaced by oversized payload")
	}
	if b := cache.stats().Bytes; b != 500 {
		t.Fatalf("cache holds %d bytes; oversized entry admitted", b)
	}
	if base.gets.Load() != 3 { // 1 + huge twice (never cached)
		t.Fatalf("underlying reads = %d, want 3", base.gets.Load())
	}
}

// TestCacheConcurrentMix hammers every operation from many goroutines; run
// with -race. Correctness criterion: reads always return the full payload
// most recently Put for the key (payload content encodes the key).
func TestCacheConcurrentMix(t *testing.T) {
	cs, _, cache := newCountedCache(t, 64<<10, 0)
	const keys = 32
	payload := func(id int) []byte {
		return bytes.Repeat([]byte{byte(id + 1)}, 700+id)
	}
	for i := 0; i < keys; i++ {
		if err := cs.Store.Put("d", chunk.ID(i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := time.Now().Add(200 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				id := (i*7 + g) % keys
				switch i % 5 {
				case 4:
					if err := cs.Put("d", chunk.ID(id), payload(id)); err != nil {
						errs <- err
						return
					}
				case 3:
					// A cache-only write of the store's bytes: it marks
					// an in-flight load of the key stale, as a write-back
					// does.
					cache.Put("d", chunk.ID(id), payload(id))
				default:
					got, err := cs.Get("d", chunk.ID(id))
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, payload(id)) {
						errs <- fmt.Errorf("key %d: wrong payload", id)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if b := cache.stats().Bytes; b > 64<<10 {
		t.Fatalf("budget breached: %d", b)
	}
}
