// Package faultep is a reusable fault-injection harness for the rpc layer:
// an Endpoint wrapper that drops, delays or errors messages matched by a
// predicate, plus a Fabric wrapper that applies per-node rules across a
// whole mesh. Engine and transport failure tests use it to reproduce the
// partial failures a real deployment sees — a peer that stops acking, a
// link that eats one message type, a send that errors mid-tile — without
// real processes or real networks.
//
// Rules are evaluated in registration order; the first match wins. A rule
// can combine a delay with a drop or an error (the delay is applied first),
// modelling a slow link that eventually fails.
package faultep

import (
	"context"
	"sync"
	"time"

	"adr/internal/bufpool"
	"adr/internal/rpc"
)

// Action is what happens to a matched message.
type Action struct {
	// Delay is applied before the drop/error/delivery.
	Delay time.Duration
	// Drop discards the message silently: a Send reports success without
	// delivering; a Recv skips the message and waits for the next one.
	Drop bool
	// Err, when non-nil, fails the operation with this error.
	Err error
}

// Predicate selects messages a rule applies to.
type Predicate func(rpc.Message) bool

type rule struct {
	match Predicate
	act   Action
}

// Endpoint wraps an rpc.Endpoint and applies fault rules to its traffic.
// Rules can be added while traffic flows; all methods are safe for
// concurrent use.
type Endpoint struct {
	inner rpc.Endpoint

	mu   sync.Mutex
	send []rule
	recv []rule
}

// wrap builds a transparent wrapper around inner; it behaves identically
// until rules are added.
func wrap(inner rpc.Endpoint) *Endpoint {
	return &Endpoint{inner: inner}
}

// OnSend installs a rule applied to outbound messages.
func (e *Endpoint) OnSend(match Predicate, act Action) {
	e.mu.Lock()
	e.send = append(e.send, rule{match, act})
	e.mu.Unlock()
}

// OnRecv installs a rule applied to inbound messages.
func (e *Endpoint) OnRecv(match Predicate, act Action) {
	e.mu.Lock()
	e.recv = append(e.recv, rule{match, act})
	e.mu.Unlock()
}

func match(rules []rule, m rpc.Message) (Action, bool) {
	for _, r := range rules {
		if r.match(m) {
			return r.act, true
		}
	}
	return Action{}, false
}

// Self returns the inner endpoint's node id.
func (e *Endpoint) Self() rpc.NodeID { return e.inner.Self() }

// Nodes returns the inner fabric size.
func (e *Endpoint) Nodes() int { return e.inner.Nodes() }

// Send applies the first matching send rule, then delegates. Like a real
// transport, the wrapper owns a Pooled payload from the moment Send is
// invoked: messages it errors or drops have their buffers recycled, so fault
// injection never shows up as a pool leak.
func (e *Endpoint) Send(m rpc.Message) error {
	e.mu.Lock()
	act, ok := match(e.send, m)
	e.mu.Unlock()
	if ok {
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		if act.Err != nil {
			recyclePooled(m)
			return act.Err
		}
		if act.Drop {
			recyclePooled(m)
			return nil
		}
	}
	return e.inner.Send(m)
}

// recyclePooled returns an undelivered message's pooled payload, mirroring
// the ownership rule both transports follow on their failure paths.
func recyclePooled(m rpc.Message) {
	if m.Pooled {
		bufpool.Put(m.Payload)
	}
}

// Recv delegates, applying the first matching recv rule to each arriving
// message; dropped messages are consumed and skipped.
func (e *Endpoint) Recv(ctx context.Context) (rpc.Message, error) {
	for {
		m, err := e.inner.Recv(ctx)
		if err != nil {
			return m, err
		}
		e.mu.Lock()
		act, ok := match(e.recv, m)
		e.mu.Unlock()
		if !ok {
			return m, nil
		}
		if act.Delay > 0 {
			select {
			case <-time.After(act.Delay):
			case <-ctx.Done():
				return rpc.Message{}, ctx.Err()
			}
		}
		if act.Err != nil {
			// The message was consumed off the transport; retire it (credit
			// and pooled buffer) before surfacing the injected failure.
			m.Release()
			return rpc.Message{}, act.Err
		}
		if act.Drop {
			m.Release()
			continue
		}
		return m, nil
	}
}

// Close closes the inner endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

var _ rpc.Endpoint = (*Endpoint)(nil)

// Fabric wraps every endpoint of an inner fabric so tests can program
// per-node faults and still hand the whole thing to the engine.
type Fabric struct {
	inner rpc.Fabric

	mu  sync.Mutex
	eps map[rpc.NodeID]*Endpoint
}

// WrapFabric builds the wrapping fabric.
func WrapFabric(inner rpc.Fabric) *Fabric {
	return &Fabric{inner: inner, eps: make(map[rpc.NodeID]*Endpoint)}
}

// Endpoint returns node id's wrapped endpoint (memoized, so rules installed
// via Node survive).
func (f *Fabric) Endpoint(id rpc.NodeID) (rpc.Endpoint, error) {
	return f.Node(id)
}

// Node is Endpoint returning the concrete wrapper, for installing rules.
func (f *Fabric) Node(id rpc.NodeID) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ep, ok := f.eps[id]; ok {
		return ep, nil
	}
	inner, err := f.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	ep := wrap(inner)
	f.eps[id] = ep
	return ep, nil
}

// Close closes the inner fabric.
func (f *Fabric) Close() error { return f.inner.Close() }

var _ rpc.Fabric = (*Fabric)(nil)
