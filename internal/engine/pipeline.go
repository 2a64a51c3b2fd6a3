package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"adr/internal/metrics"
	"adr/internal/rpc"
)

// The execution pipeline parallelizes the CPU side of a phase. The paper's
// engine overlaps disk, communication and computation but spends exactly one
// processor on the computation itself (one CPU per SP node, §3); on a
// multi-core host that leaves every chunk's decode+aggregate serialized on
// the tile loop while local reads and forwarded chunks queue behind it. A
// pool runs that work on Config.Workers goroutines instead: producers (the
// per-disk readers, the receive half of the exchange) submit encoded chunks,
// workers decode and fold them into accumulators under per-output locks.
// Correctness does not depend on ordering — ADR aggregation functions are
// commutative and associative (§1), so any interleaving yields the same
// accumulator values — which is also why remote inputs can be consumed the
// moment they arrive instead of after local reads drain.

// work is one queued pipeline item: an encoded chunk (or ghost accumulator)
// with its routing position.
type work struct {
	// seq is the item's plan position: input position for local-reduction
	// items, output position for global-combine ghosts.
	seq  int32
	data []byte
	// rel, when set, retires the item once its worker callback returns (or
	// when the pool skips it after a failure): for mailbox items it is the
	// message's Release — flow-control credit returns to the sender and a
	// pooled payload recycles. The callback must not retain data or anything
	// aliasing it. Local-read items leave it nil; their buffers belong to
	// the storage/cache.
	rel func()
	enq time.Time
}

// latch holds a phase's first failure. fail records it and cancels ctx, which
// every blocking wait of the phase — take, submit, a shared read — watches,
// so one half failing stops the others. A cancellation of the parent context
// is not a failure until a waiter reports being interrupted by it: a phase
// whose work all completed before the context died still succeeds, exactly
// as the serial loop behaved.
type latch struct {
	ctx    context.Context
	cancel context.CancelFunc
	once   sync.Once
	failed atomic.Bool
	err    error
}

func newLatch(ctx context.Context) *latch {
	l := &latch{}
	l.ctx, l.cancel = context.WithCancel(ctx)
	return l
}

// fail records the phase's first error (nil is ignored) and cancels its
// context. Safe from any goroutine of the phase; err may be read once they
// have all been joined.
func (l *latch) fail(err error) {
	if err == nil {
		return
	}
	l.once.Do(func() {
		l.err = err
		l.failed.Store(true)
		l.cancel()
	})
}

// pool runs a phase's decode+aggregate callback on a fixed set of workers.
// Producers submit items; the first error (from a worker or reported by a
// producer via fail) cancels the pool's context, which unblocks every
// producer. Workers keep draining the queue after a failure so producers
// never block on a full channel, but only recycle the skipped items'
// buffers. Use: submit from any number of goroutines, join the producers,
// then call wait exactly once.
type pool struct {
	*latch
	ch  chan work
	met *metrics.Node
	fn  func(work) error
	wg  sync.WaitGroup
}

// newPool starts workers goroutines consuming the queue.
func newPool(ctx context.Context, workers int, met *metrics.Node, fn func(work) error) *pool {
	if workers < 1 {
		workers = 1
	}
	p := &pool{
		latch: newLatch(ctx),
		// 2x workers of buffer: enough that a producer handing over an item
		// rarely blocks, small enough to bound in-flight chunk memory at a
		// few chunks per worker (each disk reader holds at most one more).
		ch:  make(chan work, 2*workers),
		met: met,
		fn:  fn,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for w := range p.ch {
		if p.failed.Load() {
			w.release()
			continue
		}
		p.met.QueueWaitNanos.Add(time.Since(w.enq).Nanoseconds())
		err := p.fn(w)
		w.release()
		if err != nil {
			p.fail(err)
		}
	}
}

// release retires the item exactly once: credit returns to the sender and a
// pooled payload recycles. Dropping instead of releasing is always
// memory-safe (the GC reclaims the bytes) but leaks the sender's credit and
// the pool's outstanding balance; releasing while any reference lives is
// not safe — callers guarantee the worker callback is the payload's last
// reader.
func (w *work) release() {
	if r := w.rel; r != nil {
		w.rel = nil
		r()
	}
}

// submit queues one item, blocking while workers are busy. It reports false
// once the pool is cancelled; the item's buffer is recycled and the
// producer should stop. A cancellation that interrupts a submission is
// recorded as the pool's failure (unless an earlier error already was), so
// a phase cut short by its context never reports success.
func (p *pool) submit(w work) bool {
	w.enq = time.Now()
	select {
	case p.ch <- w:
		return true
	case <-p.ctx.Done():
		w.release()
		p.fail(p.ctx.Err())
		return false
	}
}

// deliver submits an inbound message; the item retires it when its worker
// callback returns (work.rel). It is the receive half of a pooled phase.
func (p *pool) deliver(m rpc.Message) error {
	if !p.submit(work{seq: m.Seq, data: m.Payload, rel: m.Release}) {
		return p.ctx.Err()
	}
	return nil
}

// wait closes the queue, joins the workers and returns the first failure.
// All producers must have returned before wait is called — it is the final
// barrier of the phase.
func (p *pool) wait() error {
	close(p.ch)
	p.wg.Wait()
	p.cancel()
	return p.err
}

// accumLocks builds the per-output mutex shard map for one tile: every
// accumulator this node holds gets its own lock, so two chunks targeting
// different outputs aggregate fully in parallel and two targeting the same
// output serialize only against each other. The map itself is read-only
// while workers run.
func accumLocks(accs map[int32]Accumulator) map[int32]*sync.Mutex {
	locks := make(map[int32]*sync.Mutex, len(accs))
	for o := range accs {
		locks[o] = new(sync.Mutex)
	}
	return locks
}
