package rpc

import (
	"fmt"
	"sync"
	"time"
)

// Credit-based flow control for the forwarding path. The paper's strategies
// overlap disk reads with interprocessor chunk forwarding (§2.2, §4), and
// the crossovers between them are driven by bytes on the wire per link — so
// the transports bound in-flight traffic in bytes, not messages. A sender
// charges every flow-controlled payload against one gate before it leaves:
// the window toward its destination, the receiver's share of this sender's
// memory. A node's in-flight total is thereby bounded too, by (N−1)·window
// plus one oversized frame per peer, with no second gate.
//
// Credits return when the receiver finishes with the payload and calls
// Message.Release — on TCP via a credit frame, in-process by releasing the
// sender's window directly. A sender with no credit blocks in Send; in the
// engine the sender is a disk reader, so backpressure stops that disk.
//
// Flow is the forwarding flow-control knob, declared here — where the
// transports enforce it — and held by value wherever it is configured
// (TCPOptions, InprocOptions, backend.Config, core.Options). Every node of a
// mesh must use the same value.
type Flow struct {
	// WindowBytes caps the payload bytes a node may have in flight toward any
	// single peer: sends beyond it block until the peer's engine releases
	// consumed payloads and the credit returns. 0 disables flow control.
	WindowBytes int64
}

// Validate rejects a value no transport can honour. Both fabric constructors
// call it, so a bad window fails start-up instead of every query.
func (f Flow) Validate() error {
	if f.WindowBytes < 0 {
		return fmt.Errorf("rpc: negative flow-control window %d", f.WindowBytes)
	}
	return nil
}

// flowWindow is one such gate, and the (sender, destination) pair's charged
// balance: a byte counter with a limit, a condition variable for blocked
// senders, and a high-water mark for the tests and the backpressure
// benchmark. A nil window disables the gate (every call is a no-op), so
// unconfigured fabrics pay nothing.
type flowWindow struct {
	mu       sync.Mutex
	cond     *sync.Cond
	limit    int64
	inflight int64
	peak     int64
	closed   bool
}

// newFlowWindow builds a gate admitting limit in-flight bytes; limit <= 0
// returns nil (disabled).
func newFlowWindow(limit int64) *flowWindow {
	if limit <= 0 {
		return nil
	}
	w := &flowWindow{limit: limit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire charges n bytes, blocking while the window is full. A payload
// larger than the whole window is admitted once the window is empty, so an
// oversized frame makes progress instead of deadlocking — this is the
// "± one frame" slack in the in-flight bound. It returns how long the
// caller stalled waiting for credit and whether the charge was taken; ok is
// false when the window was closed underneath the caller (peer death or
// endpoint shutdown), in which case nothing was charged.
func (w *flowWindow) acquire(n int64) (stall time.Duration, ok bool) {
	if w == nil || n <= 0 {
		return 0, true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var start time.Time
	for !w.closed && w.inflight > 0 && w.inflight+n > w.limit {
		if start.IsZero() {
			start = time.Now()
		}
		w.cond.Wait()
	}
	if !start.IsZero() {
		stall = time.Since(start)
	}
	if w.closed {
		return stall, false
	}
	w.inflight += n
	if w.inflight > w.peak {
		w.peak = w.inflight
	}
	return stall, true
}

// release returns up to n bytes of credit, wakes blocked senders and reports
// how many bytes it actually took off the balance: a grant is clamped to
// what is charged (the count may come off the wire, from a confused peer),
// and after close it is a no-op — the balance was reclaimed wholesale.
func (w *flowWindow) release(n int64) int64 {
	if w == nil || n <= 0 {
		return 0
	}
	w.mu.Lock()
	if w.closed {
		n = 0
	} else if n > w.inflight {
		n = w.inflight
	}
	w.inflight -= n
	w.mu.Unlock()
	w.cond.Broadcast()
	return n
}

// close permanently unblocks every waiter; subsequent acquires fail. Used
// when the peer behind the window dies or the endpoint shuts down, so no
// sender waits forever on credit that can never return. It zeroes the
// balance and returns what it held: this is the reclaim, and because closed
// flips under the same lock it happens exactly once however late releases
// and racing acquires interleave.
func (w *flowWindow) close() (held int64) {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	w.closed = true
	held, w.inflight = w.inflight, 0
	w.mu.Unlock()
	w.cond.Broadcast()
	return held
}

// highWater returns the window's peak in-flight byte count — the quantity
// TestConformance asserts stays within the configured window plus one frame.
func (w *flowWindow) highWater() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}
