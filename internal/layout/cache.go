package layout

import (
	"container/list"
	"sync"
	"sync/atomic"

	"adr/internal/chunk"
	"adr/internal/metrics"
)

// Process-wide cache counters, summed across every ChunkCache in the
// process (one per node daemon in production; tests may create more).
var (
	cacheHits      = metrics.Default.Counter("adr_cache_hits_total")
	cacheMisses    = metrics.Default.Counter("adr_cache_misses_total")
	cacheEvictions = metrics.Default.Counter("adr_cache_evictions_total")
	cacheBytesG    = metrics.Default.Gauge("adr_cache_bytes")
)

// admissionDivisor bounds a single cache entry to budget/admissionDivisor
// bytes: a payload larger than that would evict a whole working set of
// smaller hot chunks for one read, so it bypasses the cache entirely.
const admissionDivisor = 8

// ChunkCache is a per-node, memory-bounded LRU over encoded chunk payloads,
// keyed by (dataset, chunk ID) and shared by every disk store of the node
// (ids are unique within a dataset across disks, so one map serves the whole
// farm). It is the layer between the engine and the disk farm that turns
// millions of overlapping range queries over a hot region into one disk
// read per chunk:
//
//   - Reads go through GetThrough, which coalesces concurrent misses for
//     the same cold chunk into a single disk read (singleflight) and serves
//     every waiter from the one load.
//   - Writes are written through: Put replaces the cached payload so query
//     output written back to an existing dataset (§2.4 in-place updates)
//     can never be served stale.
//   - Memory is hard-bounded: inserting past the byte budget evicts from
//     the LRU tail, and entries larger than budget/8 are never admitted
//     (one giant chunk must not flush the hot set).
//
// Cached payloads are shared, not copied, on the read path — the same
// immutability contract memStore.Get already imposes on engine code.
// All methods are safe for concurrent use.
type ChunkCache struct {
	budget   int64
	maxEntry int64

	mu       sync.Mutex
	entries  map[storeKey]*list.Element
	lru      *list.List // front = most recently used
	bytes    int64
	inflight map[storeKey]*flight

	// Per-cache counters backing Stats; the registry counters above are
	// process-wide and updated alongside.
	hits, misses, evictions atomic.Int64
}

// cacheEntry is one resident payload.
type cacheEntry struct {
	key  storeKey
	data []byte
}

// flight is one in-progress load; waiters block on done. stale is set
// (under the cache mutex) when a Put or Invalidate races the load: the
// flight's bytes may predate the write, so they must not populate the
// cache, and a reader arriving after the write must not be handed them — it
// starts a flight of its own, which takes over the key's inflight slot.
type flight struct {
	done  chan struct{}
	data  []byte
	err   error
	stale bool
}

// NewChunkCache builds a cache with a hard byte budget (> 0).
func NewChunkCache(budget int64) *ChunkCache {
	if budget <= 0 {
		budget = 1
	}
	return &ChunkCache{
		budget:   budget,
		maxEntry: budget / admissionDivisor,
		entries:  make(map[storeKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[storeKey]*flight),
	}
}

// cacheStats is a point-in-time view of a cache's counters.
type cacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Entries   int
}

// stats returns this cache's counters (the registry counters aggregate all
// caches in the process; tests want per-cache numbers).
func (c *ChunkCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes,
		Entries:   len(c.entries),
	}
}

// GetThrough returns the payload for (dataset, id), loading it with load on
// a miss. Concurrent callers missing on the same key share one load: the
// first caller runs load, the rest block and receive its result. hit
// reports whether the caller was served without running a disk read itself
// (a resident entry or a shared in-flight load). Load errors are returned
// to every waiter of that flight and nothing is cached.
func (c *ChunkCache) GetThrough(dataset string, id chunk.ID, load func() ([]byte, error)) (data []byte, hit bool, err error) {
	key := storeKey{dataset, id}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		data = el.Value.(*cacheEntry).data
		c.mu.Unlock()
		c.hits.Add(1)
		cacheHits.Inc()
		return data, true, nil
	}
	if fl, ok := c.inflight[key]; ok && !fl.stale {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		c.hits.Add(1)
		cacheHits.Inc()
		return fl.data, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	cacheMisses.Inc()

	fl.data, fl.err = load()
	close(fl.done)

	c.mu.Lock()
	if c.inflight[key] == fl {
		delete(c.inflight, key)
	}
	if fl.err == nil && !fl.stale {
		c.insertLocked(key, fl.data)
	}
	c.mu.Unlock()
	return fl.data, false, fl.err
}

// Put writes data through to the cache, replacing any resident payload for
// the key so readers can never see bytes older than the store's. The cache
// keeps its own copy (callers may reuse data).
func (c *ChunkCache) Put(dataset string, id chunk.ID, data []byte) {
	key := storeKey{dataset, id}
	cp := append([]byte(nil), data...)
	c.mu.Lock()
	if fl, ok := c.inflight[key]; ok {
		fl.stale = true
	}
	c.removeLocked(key, false)
	c.insertLocked(key, cp)
	c.mu.Unlock()
}

// Invalidate drops the entry for (dataset, id) if resident.
func (c *ChunkCache) Invalidate(dataset string, id chunk.ID) {
	key := storeKey{dataset, id}
	c.mu.Lock()
	if fl, ok := c.inflight[key]; ok {
		fl.stale = true
	}
	c.removeLocked(key, false)
	c.mu.Unlock()
}

// InvalidateDataset drops every resident entry of the dataset (used after
// operations that rewrite a whole segment, e.g. FileStore.Compact).
func (c *ChunkCache) InvalidateDataset(dataset string) {
	c.mu.Lock()
	for key, fl := range c.inflight {
		if key.dataset == dataset {
			fl.stale = true
		}
	}
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.dataset == dataset {
			c.removeLocked(e.key, false)
		}
		el = next
	}
	c.mu.Unlock()
}

// insertLocked admits data under the budget, evicting from the LRU tail.
// Entries above the admission bound are not cached at all.
func (c *ChunkCache) insertLocked(key storeKey, data []byte) {
	size := int64(len(data))
	if size > c.maxEntry {
		return
	}
	if el, ok := c.entries[key]; ok {
		// Racing loads of one key (a load finishing after an unrelated Put):
		// keep the newer bytes.
		old := el.Value.(*cacheEntry)
		c.bytes += size - int64(len(old.data))
		cacheBytesG.Add(size - int64(len(old.data)))
		old.data = data
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
		c.bytes += size
		cacheBytesG.Add(size)
	}
	for c.bytes > c.budget {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail.Value.(*cacheEntry).key, true)
	}
}

// removeLocked drops a resident entry, counting it as an eviction when the
// drop was budget-driven rather than an invalidation.
func (c *ChunkCache) removeLocked(key storeKey, evicted bool) {
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, key)
	c.bytes -= int64(len(e.data))
	cacheBytesG.Add(-int64(len(e.data)))
	if evicted {
		c.evictions.Add(1)
		cacheEvictions.Inc()
	}
}

// CachedStore layers a ChunkCache over a Store. Reads are served from the
// cache (GetCached reports hits for per-query accounting); writes go to the
// store first and are then written through to the cache. The cache is
// typically shared by every CachedStore of one farm — see Farm.WithCache.
type CachedStore struct {
	Store
	cache *ChunkCache
}

// NewCachedStore wraps st with the shared cache.
func NewCachedStore(st Store, cache *ChunkCache) *CachedStore {
	return &CachedStore{Store: st, cache: cache}
}

// Get serves from the cache, falling back to the underlying store.
func (s *CachedStore) Get(dataset string, id chunk.ID) ([]byte, error) {
	data, _, err := s.GetCached(dataset, id)
	return data, err
}

// GetCached is Get reporting whether the read was served without a disk
// read by this caller (the engine attributes hits to its query trace).
func (s *CachedStore) GetCached(dataset string, id chunk.ID) ([]byte, bool, error) {
	return s.cache.GetThrough(dataset, id, func() ([]byte, error) {
		return s.Store.Get(dataset, id)
	})
}

// Put writes through: store first, then cache, so a cached payload is never
// newer than the store's and never staler than the last Put.
func (s *CachedStore) Put(dataset string, id chunk.ID, data []byte) error {
	if err := s.Store.Put(dataset, id, data); err != nil {
		return err
	}
	s.cache.Put(dataset, id, data)
	return nil
}

// Compact forwards to the underlying store when it supports compaction and
// then drops the dataset's cached entries. Compaction keeps the newest
// record per id so resident bytes are logically identical, but dropping
// them keeps the invalidation rule blunt: any segment rewrite clears the
// dataset from cache.
func (s *CachedStore) Compact(dataset string) error {
	type compacter interface{ Compact(string) error }
	if cs, ok := s.Store.(compacter); ok {
		if err := cs.Compact(dataset); err != nil {
			return err
		}
	}
	s.cache.InvalidateDataset(dataset)
	return nil
}

// Cache returns the shared cache (nil for an unwrapped store).
func (s *CachedStore) Cache() *ChunkCache { return s.cache }
