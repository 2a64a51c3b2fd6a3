// Package bufpool recycles payload buffers across the engine's hot paths:
// the TCP transport's frame reads, chunk encoding on the forward path, and
// the worker pipeline's decode+aggregate stages. Without it, every inbound
// frame and every forwarded output chunk allocates a fresh []byte that dies
// within microseconds, and at pipeline rates the allocator becomes the
// second bottleneck after the aggregation itself (the classic decoupled-
// execution observation: once compute is parallel, allocation churn is what
// serializes next, on the GC).
//
// Buffers are size-classed in powers of two, backed by one sync.Pool per
// class. Get(n) returns a buffer of length n whose first n bytes are
// UNSPECIFIED — callers must fully overwrite them (frame reads and appends
// do). Put returns a buffer for reuse; the caller must not touch it
// afterwards. Ownership is single-holder: a buffer flows from Get through
// exactly one consumer to Put (or is dropped to the GC, which is always
// safe — the pool is an optimization, never a correctness requirement).
//
// Reuse is observable as the adr_engine_pool_hits_total /
// adr_engine_pool_misses_total counter pair: hits are Gets served by a
// recycled buffer, misses are Gets that had to allocate. The pool also keeps
// a balance sheet: adr_bufpool_outstanding is the number of class-sized
// buffers currently checked out (Get minus Put minus Disown). A process at
// rest should read 0 (or its steady-state working set); a counter that only
// grows is a leaked-ownership bug, which is exactly what the engine's
// buffer-leak tests assert on.
package bufpool

import (
	"sync"

	"adr/internal/metrics"
)

var (
	hits   = metrics.Default.Counter("adr_engine_pool_hits_total")
	misses = metrics.Default.Counter("adr_engine_pool_misses_total")
	// outstanding tracks checked-out class-sized buffers. Requests outside
	// the pooled range never enter the balance (they are plain allocations
	// the GC owns from the start).
	outstanding = metrics.Default.Gauge("adr_bufpool_outstanding")
)

// Size classes: 1 KiB up to 64 MiB (rpc.MaxFrameBytes). Requests above the
// largest class allocate directly and are never pooled.
const (
	minClassBits = 10
	maxClassBits = 26
	numClasses   = maxClassBits - minClassBits + 1
)

var pools [numClasses]sync.Pool

// classFor returns the smallest class index whose buffers hold n bytes, or
// -1 when n is out of the pooled range.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	for c := 0; c < numClasses; c++ {
		if n <= 1<<(minClassBits+c) {
			return c
		}
	}
	return -1
}

// Get returns a buffer of length n (capacity may be larger). The contents
// are unspecified; the caller must overwrite all n bytes before reading
// them. Buffers outside the pooled size range are plain allocations.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		misses.Inc()
		return make([]byte, n)
	}
	outstanding.Inc()
	if v := pools[c].Get(); v != nil {
		hits.Inc()
		b := *(v.(*[]byte))
		return b[:n]
	}
	misses.Inc()
	return make([]byte, n, 1<<(minClassBits+c))
}

// isClassSized reports whether b's capacity is exactly one of the pool's
// size classes — the test both Put and Disown use to decide whether b is
// part of the outstanding balance.
func isClassSized(b []byte) bool {
	c := cap(b)
	if c < 1<<minClassBits || c&(c-1) != 0 {
		return false
	}
	cls := classFor(c)
	return cls >= 0 && 1<<(minClassBits+cls) == c
}

// Put recycles a buffer obtained from Get. Buffers whose capacity is not an
// exact size class (foreign allocations, subslices) are dropped to the GC.
// The caller must not use b after Put.
func Put(b []byte) {
	if !isClassSized(b) {
		return
	}
	outstanding.Dec()
	c := cap(b)
	b = b[:c]
	pools[classFor(c)].Put(&b)
}

// Disown removes a checked-out buffer from the outstanding balance without
// recycling it: the buffer's ownership passes to the GC (and to whatever
// long-lived structure retains it, e.g. a decoded result chunk whose item
// values alias the bytes). Use it when a buffer legitimately outlives the
// pool's get/put cycle, so leak accounting stays exact. The caller may keep
// using b; it just must never Put it afterwards.
func Disown(b []byte) {
	if isClassSized(b) {
		outstanding.Dec()
	}
}

// Outstanding returns the number of class-sized buffers currently checked
// out (Get minus Put minus Disown) — the balance the buffer-leak tests
// compare before and after a run. Exported on /metrics as
// adr_bufpool_outstanding.
func Outstanding() int64 {
	return outstanding.Value()
}
