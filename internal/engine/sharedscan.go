package engine

import (
	"context"
	"sync"
	"time"

	"adr/internal/chunk"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// Cross-query shared scans. The paper's back end "services multiple
// simultaneous active queries" and batches their chunk retrievals so one
// disk read feeds every interested query (§2.1, §2.4). This file is that
// multi-query layer: a SharedScan groups queries admitted within a small
// batching window, merges their plans' per-tile chunk demands into one read
// schedule per node, and lets each chunk be read (or cache-fetched) once and
// fanned out to every member query's decode/aggregate workers.
//
// Isolation invariants, per query:
//
//   - Accounting: a consumer that was served by a peer's read records
//     SharedReads/DedupedBytes in its own metrics.Node; the leader that
//     issued the read records a plain read. Bytes and chunk counts are
//     charged to every consumer (they consumed the data), matching the
//     cache-hit convention.
//   - Aborts: a waiter blocks on (read done | its own context), so one
//     query's abort or deadline can never stall or kill its batch peers;
//     the leader finishes its in-flight read even if its query is dying,
//     because peers may be waiting on the result.
//   - Deadlines: Join's start gate is bounded by the batching window, and
//     every subsequent wait is bounded by the waiting query's own context.

// ScanOptions is the shared-scan knob pair, declared here — where the
// scheduler enforces it — and held by value wherever it is configured
// (backend.Config, core.Options).
type ScanOptions struct {
	// BatchWindow, when > 0, enables the cross-query shared-scan scheduler:
	// queries admitted within the window form a batch whose overlapping chunk
	// reads are issued once per chunk and fanned out to every member. 0
	// disables batching (each query reads for itself).
	BatchWindow time.Duration
	// MaxBatch caps the queries grouped into one batch; <= 0 selects
	// DefaultMaxBatch. Only consulted when BatchWindow > 0.
	MaxBatch int
}

// DefaultMaxBatch caps the queries grouped into one shared-scan batch when
// the caller does not choose a bound.
const DefaultMaxBatch = 8

// DefaultRetainBytes bounds the bytes a batch retains for members that have
// registered demand for an already-completed read but not consumed it yet.
// Past the cap the oldest retained payloads are dropped and late consumers
// re-read — correctness is unaffected, only the dedup ratio.
const DefaultRetainBytes = 64 << 20

// Shared-scan instrumentation: reads served from a batch peer's read, and
// the disk bytes those served reads did not re-fetch.
var (
	scanSharedReads  = metrics.Default.Counter("adr_node_shared_reads_total")
	scanDedupedBytes = metrics.Default.Counter("adr_node_deduped_bytes_total")
	scanBatches      = metrics.Default.Counter("adr_node_scan_batches_total")
	scanEvictions    = metrics.Default.Counter("adr_node_scan_retain_evictions_total")
)

// ReadKey identifies one chunk read in a node's schedule: the dataset plus
// the chunk's id within it (ids are dense per dataset, so the pair is
// unique; the disk is derivable and deliberately not part of the key).
type ReadKey struct {
	Dataset string
	ID      chunk.ID
}

// SharedScan batches concurrently admitted queries on one node and
// deduplicates the chunk reads their plans share. One SharedScan serves one
// node process; queries join with their full demand schedule and leave when
// their engine run finishes.
type SharedScan struct {
	window    time.Duration
	maxBatch  int
	retainCap int64

	mu  sync.Mutex // guards cur and all batch/member state
	cur *scanBatch
}

// NewSharedScan builds a scheduler with the given batching window and batch
// size bound (<= 0 selects DefaultMaxBatch).
func NewSharedScan(window time.Duration, maxBatch int) *SharedScan {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	return &SharedScan{window: window, maxBatch: maxBatch, retainCap: DefaultRetainBytes}
}

// scanBatch is one group of queries whose reads are merged. A batch is open
// (accepting joiners) until its window expires or maxBatch queries joined;
// sealing closes the start gate and releases every member to run.
type scanBatch struct {
	s      *SharedScan
	start  chan struct{} // closed on seal: the members' start gate
	sealed bool
	size   int // members ever joined
	live   int // members not yet left

	// reads is the batch's merged schedule: every key any member demanded,
	// with the union demand count. Entries are dropped as demand drains.
	reads map[ReadKey]*sharedRead

	retainedBytes int64
	retainQ       []ReadKey // FIFO eviction order for retained payloads

	timer *time.Timer
}

// sharedRead is the state of one deduplicated chunk read within a batch.
type sharedRead struct {
	want     int           // registered demands not yet consumed or withdrawn
	inflight bool          // a leader is performing the read now
	done     chan struct{} // closed when the in-flight read completes
	ready    bool          // data/err below are valid
	retained bool          // data is counted against the batch's retain cap
	data     []byte
	err      error
}

// ScanMember is one query's membership in a batch. The engine consults it
// for every local chunk read; the owner must call Leave exactly once when
// the query finishes (normally or not) so retained payloads are released.
type ScanMember struct {
	batch   *scanBatch
	demands map[ReadKey]int // this member's remaining demand per key
	left    bool
}

// Join registers a query with the scheduler: its demand schedule is merged
// into the current open batch (or a fresh one), and the call blocks until
// the batch seals — the start gate that lines overlapping queries up so
// their reads actually coincide. The wait is bounded by the batching window
// and by ctx; a context abort during the gate leaves the membership valid
// (the caller proceeds and fails on its own context).
func (s *SharedScan) Join(ctx context.Context, demands []ReadKey) *ScanMember {
	s.mu.Lock()
	b := s.cur
	if b == nil || b.sealed || b.size >= s.maxBatch {
		b = &scanBatch{
			s:     s,
			start: make(chan struct{}),
			reads: make(map[ReadKey]*sharedRead),
		}
		s.cur = b
		scanBatches.Inc()
		if s.window > 0 {
			b.timer = time.AfterFunc(s.window, func() {
				s.mu.Lock()
				b.sealLocked()
				s.mu.Unlock()
			})
		}
	}
	m := &ScanMember{batch: b, demands: make(map[ReadKey]int, len(demands))}
	for _, k := range demands {
		m.demands[k]++
		r := b.reads[k]
		if r == nil {
			r = &sharedRead{}
			b.reads[k] = r
		}
		r.want++
	}
	b.size++
	b.live++
	if b.size >= s.maxBatch || s.window <= 0 {
		b.sealLocked()
	}
	s.mu.Unlock()

	select {
	case <-b.start:
	case <-ctx.Done():
	}
	return m
}

// sealLocked closes the batch to new members and opens the start gate.
// Callers hold s.mu.
func (b *scanBatch) sealLocked() {
	if b.sealed {
		return
	}
	b.sealed = true
	close(b.start)
	if b.timer != nil {
		b.timer.Stop()
	}
	if b.s.cur == b {
		b.s.cur = nil
	}
}

// Read serves one chunk read through the batch. load performs the actual
// storage read (and reports a cache hit when the storage can). The first
// demander of a key becomes the leader and issues load; everyone else
// either receives the completed payload (shared=true) or waits for the
// in-flight read, bounded by its own ctx. Keys outside the member's
// registered demand — and reads after Leave — pass straight through to
// load. A nil member is a valid no-op wrapper around load.
func (m *ScanMember) Read(ctx context.Context, key ReadKey, load func() ([]byte, bool, error)) (data []byte, cacheHit, shared bool, err error) {
	if m == nil {
		data, cacheHit, err = load()
		return data, cacheHit, false, err
	}
	b := m.batch
	s := b.s
	s.mu.Lock()
	for {
		if m.left || m.demands[key] <= 0 {
			s.mu.Unlock()
			data, cacheHit, err = load()
			return data, cacheHit, false, err
		}
		r := b.reads[key]
		if r.ready {
			// Served by a batch peer's (or an earlier own) read.
			data, err = r.data, r.err
			b.consumeLocked(m, key, r)
			s.mu.Unlock()
			scanSharedReads.Inc()
			scanDedupedBytes.Add(int64(len(data)))
			return data, false, true, err
		}
		if !r.inflight {
			// Become the leader. The read completes even if this query's
			// context dies meanwhile: peers may be blocked on done.
			r.inflight = true
			r.done = make(chan struct{})
			s.mu.Unlock()
			data, cacheHit, err = load()
			s.mu.Lock()
			r.inflight, r.ready = false, true
			r.data, r.err = data, err
			close(r.done)
			b.consumeLocked(m, key, r)
			b.retainLocked(key, r)
			s.mu.Unlock()
			return data, cacheHit, false, err
		}
		// A peer is reading; wait for it or for this query's own end.
		done := r.done
		s.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, false, false, ctx.Err()
		}
		s.mu.Lock()
	}
}

// consumeLocked spends one unit of the member's demand for key and releases
// the entry once the whole batch's demand is drained.
func (b *scanBatch) consumeLocked(m *ScanMember, key ReadKey, r *sharedRead) {
	m.demands[key]--
	r.want--
	if r.want <= 0 && !r.inflight {
		b.releaseLocked(key, r)
	}
}

// releaseLocked drops a read's retained payload and removes it from the
// batch's schedule.
func (b *scanBatch) releaseLocked(key ReadKey, r *sharedRead) {
	if r.retained {
		b.retainedBytes -= int64(len(r.data))
		r.retained = false
	}
	r.data = nil
	delete(b.reads, key)
}

// retainLocked keeps a completed payload for members that still demand it,
// evicting the oldest retained payloads past the cap (late consumers then
// simply re-read — dedup degrades, correctness does not).
func (b *scanBatch) retainLocked(key ReadKey, r *sharedRead) {
	if !r.ready || r.want <= 0 || r.err != nil || r.retained || len(r.data) == 0 {
		return
	}
	r.retained = true
	b.retainedBytes += int64(len(r.data))
	b.retainQ = append(b.retainQ, key)
	for b.s.retainCap > 0 && b.retainedBytes > b.s.retainCap && len(b.retainQ) > 1 {
		k := b.retainQ[0]
		b.retainQ = b.retainQ[1:]
		if k == key {
			// Never evict the payload just produced; keep it at the back.
			b.retainQ = append(b.retainQ, k)
			continue
		}
		if rr, ok := b.reads[k]; ok && rr.retained {
			b.retainedBytes -= int64(len(rr.data))
			rr.retained, rr.ready, rr.data, rr.err = false, false, nil, nil
			scanEvictions.Inc()
		}
	}
}

// Leave withdraws the member's unconsumed demand and releases any payloads
// retained solely for it. Idempotent; required on every exit path (the
// engine may abort with demand outstanding).
func (m *ScanMember) Leave() {
	if m == nil {
		return
	}
	b := m.batch
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.left {
		return
	}
	m.left = true
	b.live--
	for k, cnt := range m.demands {
		if cnt <= 0 {
			continue
		}
		r, ok := b.reads[k]
		if !ok {
			continue
		}
		r.want -= cnt
		if r.want <= 0 && !r.inflight {
			b.releaseLocked(k, r)
		}
	}
}

// SharedDemands enumerates every local chunk read the configured plan will
// issue on node self, in schedule order: for each tile, the owned existing
// output chunks phaseInit retrieves (when the app initializes from prior
// output), then the tile's local input reads. Reads of a dataset the query
// also writes in place are excluded — a read-modify-write must observe its
// own serial order, not a batch peer's snapshot.
func SharedDemands(cfg *Config, self rpc.NodeID) []ReadKey {
	p, w := cfg.Plan, cfg.Workload
	shareOutputs := cfg.App.InitRequiresOutput() && cfg.ResultDataset != cfg.OutputDataset
	shareInputs := cfg.ResultDataset != cfg.InputDataset
	var keys []ReadKey
	for _, sh := range plan.ShareOf(p, w, int32(self)) {
		if shareOutputs {
			for _, o := range sh.Owned {
				keys = append(keys, ReadKey{cfg.OutputDataset, w.Outputs[o].ID})
			}
		}
		if shareInputs {
			for _, i := range sh.Reads {
				keys = append(keys, ReadKey{cfg.InputDataset, w.Inputs[i].ID})
			}
		}
	}
	return keys
}
