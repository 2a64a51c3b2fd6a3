package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The front half of the query path. The front-end's relay and a parallel
// client run a query the same way — fanOut to every live node, then settle —
// and differ only in what they do with a chunk frame (relay its bytes; decode
// it).

// readFrames consumes one result stream — the front-end's merged stream or a
// single node's — up to its closing control line, handing every chunk frame
// to onFrame. timeout, when positive, bounds each frame read, so a peer that
// dies mid-stream surfaces as a timeout, not a hang. With pooled set, onFrame
// must bufpool.Put every frame. node labels an error frame that does not
// locate itself.
func readFrames(conn net.Conn, r *bufio.Reader, timeout time.Duration, pooled bool, node int, onFrame func(frame []byte) error) (*DoneStats, error) {
	for {
		if timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(timeout))
		}
		frame, msg, err := ReadFrame(r, pooled)
		if err != nil {
			return nil, err
		}
		if frame != nil {
			if err := onFrame(frame); err != nil {
				return nil, err
			}
			continue
		}
		switch msg.Type {
		case "done":
			return msg.Stats, nil
		case "error":
			return nil, queryErrFrom(node, msg)
		default:
			return nil, fmt.Errorf("frontend: unknown frame %q", msg.Type)
		}
	}
}

// fanOut submits req to every node's control port — save the nodes
// req.Exclude names dead, whose streams come back Excluded and unasked — on
// a session taken from p (see sessions.send), and consumes the node streams
// concurrently, handing each chunk frame, with its node's stream, to onFrame
// (from several goroutines at once, one per stream; see readFrames for
// pooled). A stream read cleanly to its done line hands its session back to
// p; any other end closes it. Timeouts: 0 selects the default, negative
// disables. A node whose connection is refused, reset or cut mid-stream may
// have died: its stream fails retryably, and the resubmission learns from the
// survivors whether it did.
func fanOut(p *sessions, addrs []string, req *NodeRequest, dialTimeout, readTimeout time.Duration, pooled bool, onFrame func(s *NodeStream, frame []byte) error) []NodeStream {
	dialTimeout = timeoutOrDefault(dialTimeout, defaultDialTimeout)
	readTimeout = timeoutOrDefault(readTimeout, defaultStreamTimeout)
	streams := make([]NodeStream, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		streams[i].Node = i
		if slices.Contains(req.Exclude, i) {
			streams[i].Excluded = true
			continue
		}
		wg.Add(1)
		go func(s *NodeStream, addr string) {
			defer wg.Done()
			s.Err = s.run(p, addr, req, dialTimeout, readTimeout, pooled, onFrame)
			var qe *QueryError
			if s.Err != nil && !errors.As(s.Err, &qe) && connLost(s.Err) {
				s.Err = &QueryError{Node: s.Node, Origin: s.Node, Message: s.Err.Error(), Retryable: true}
			}
		}(&streams[i], addr)
	}
	wg.Wait()
	return streams
}

// run submits req to the node at addr on a session from p and consumes its
// stream into s. Only a clean done line returns the session to p.
func (s *NodeStream) run(p *sessions, addr string, req *NodeRequest, dialTimeout, readTimeout time.Duration, pooled bool, onFrame func(s *NodeStream, frame []byte) error) error {
	sess, err := p.send(s.Node, addr, req, dialTimeout, readTimeout)
	if err != nil {
		return err
	}
	s.Stats, err = readFrames(sess.conn, sess.r, readTimeout, pooled, s.Node,
		func(frame []byte) error { return onFrame(s, frame) })
	if err != nil {
		sess.conn.Close()
		var qe *QueryError
		if !errors.As(err, &qe) {
			err = fmt.Errorf("frontend: node %d stream: %w", s.Node, err)
		}
		return err
	}
	p.put(addr, sess)
	return nil
}

// connLost reports whether err is a node's connection going away — refused,
// reset or cut mid-stream — rather than an answer or a timeout.
func connLost(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// settle decides a fanned-out query: it succeeds when every node asked did,
// and a failure reports every failed node, not just the first. (One that
// traces back to a node's death is retryable: the resolver learns the dead
// node from it and resubmits without it.) On success the nodes' done stats
// are merged into the query's.
func settle(streams []NodeStream) (*DoneStats, error) {
	var errs []error
	asked := 0
	for _, s := range streams {
		if !s.Excluded {
			asked++
		}
		if s.Err != nil {
			errs = append(errs, s.Err)
		}
	}
	if asked == 0 {
		return nil, fmt.Errorf("frontend: all %d back-end nodes are dead", len(streams))
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	total := &DoneStats{Node: -1, TotalNodes: len(streams)}
	for _, s := range streams {
		st := s.Stats
		if st == nil {
			// An excluded node: no stats to merge.
			continue
		}
		total.Chunks += st.Chunks
		total.BytesRead += st.BytesRead
		total.BytesSent += st.BytesSent
		total.BytesRecv += st.BytesRecv
		total.AggOps += st.AggOps
		if st.ElapsedMS > total.ElapsedMS {
			total.ElapsedMS = st.ElapsedMS
		}
		// Assemble the per-node traces into the query's full trace.
		if st.Trace != nil {
			total.Traces = append(total.Traces, *st.Trace)
		}
		if st.Degraded {
			total.Degraded, total.Excluded = true, st.Excluded
		}
	}
	return total, nil
}
