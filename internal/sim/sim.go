// Package sim is a deterministic discrete-event simulation kernel: a virtual
// clock, an event heap, FIFO resources and completion counters. It is the
// substrate on which internal/simadr models ADR query execution on the
// paper's 128-node IBM SP (disk, NIC and CPU per node), letting the
// scalability experiments of §4 run at full machine size on a single host.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order (a monotone sequence number breaks ties), so a simulation is a pure
// function of its inputs.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is simulated seconds since the start of the run.
type Time = float64

// Engine owns the clock and the event heap.
type Engine struct {
	now    Time
	seq    int64
	events eventHeap
	ran    int64
}

// event is one scheduled callback.
type event struct {
	at  Time
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// New returns an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() int64 { return e.ran }

// At schedules fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %g before now %g", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	e.At(e.now+d, fn)
}

// Run executes events until the heap is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		e.ran++
		ev.fn()
	}
	return e.now
}

// Resource is a FIFO-serial resource (a disk, a NIC direction, a CPU): at
// most one operation is in service at a time and requests are served in
// arrival order. Acquire models ADR's explicit operation queues: the
// operation is enqueued now and completes when the resource has worked
// through everything ahead of it plus this operation's service demand.
type Resource struct {
	e    *Engine
	name string
	free Time // when the resource next falls idle
	busy Time // accumulated service time
	ops  int64
}

// NewResource attaches a named resource to the engine.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{e: e, name: name}
}

// Acquire enqueues an operation with service demand d; done (may be nil)
// fires at completion.
func (r *Resource) Acquire(d Time, done func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: resource %s acquire with negative demand %g", r.name, d))
	}
	start := r.free
	if start < r.e.now {
		start = r.e.now
	}
	end := start + d
	r.free = end
	r.busy += d
	r.ops++
	if done == nil {
		done = func() {}
	}
	// Always schedule the completion event, even without a callback, so the
	// engine's clock runs until every resource drains and Run() returns the
	// true makespan.
	r.e.At(end, done)
}

// Counter fires a callback when a known number of completions have been
// recorded — the synchronization primitive behind the per-tile phase
// boundaries of §2.4.
type Counter struct {
	remaining int
	fire      func()
	fired     bool
}

// NewCounter builds a counter expecting n completions. If n == 0 the
// callback fires immediately when Arm is called.
func NewCounter(n int, fire func()) *Counter {
	if n < 0 {
		panic("sim: negative counter")
	}
	return &Counter{remaining: n, fire: fire}
}

// Arm fires immediately if the counter is already satisfied.
func (c *Counter) Arm() {
	if c.remaining == 0 && !c.fired {
		c.fired = true
		c.fire()
	}
}

// Done records one completion.
func (c *Counter) Done() {
	if c.fired {
		panic("sim: counter completion after firing")
	}
	c.remaining--
	if c.remaining < 0 {
		panic("sim: counter over-completed")
	}
	if c.remaining == 0 {
		c.fired = true
		c.fire()
	}
}
