package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// The front half of the query path. The front-end's relay and a parallel
// client run a query the same way — fanOut to every node, then settle — and
// differ only in what they do with a chunk frame (relay its bytes; decode it)
// and in whether a failed node's frames can still be dropped afterwards.

// readFrames consumes one result stream — the front-end's merged stream or a
// single node's — up to its closing control line, handing every chunk frame
// to onFrame and counting those it accepted. timeout, when positive, bounds
// each frame read, so a peer that dies mid-stream surfaces as a timeout, not
// a hang. With pooled set, onFrame must bufpool.Put every frame. node labels
// an error frame that does not locate itself.
func readFrames(conn net.Conn, r *bufio.Reader, timeout time.Duration, pooled bool, node int, onFrame func(frame []byte) error) (stats *DoneStats, frames int, err error) {
	for {
		if timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(timeout))
		}
		frame, msg, err := ReadFrame(r, pooled)
		if err != nil {
			return nil, frames, err
		}
		if frame != nil {
			if err := onFrame(frame); err != nil {
				return nil, frames, err
			}
			frames++
			continue
		}
		switch msg.Type {
		case "done":
			return msg.Stats, frames, nil
		case "error":
			return nil, frames, queryErrFrom(node, msg)
		default:
			return nil, frames, fmt.Errorf("frontend: unknown frame %q", msg.Type)
		}
	}
}

// fanOut submits req to every node's control port and consumes the node
// streams concurrently, handing each chunk frame, with its node's stream, to
// onFrame (from several goroutines at once, one per stream; see readFrames
// for pooled). Timeouts: 0 selects the default, negative disables. A node
// that cannot be reached is a failed stream, not a failed query: on a
// degraded mesh the survivors re-home its chunks and settle accepts the
// merged result.
func fanOut(addrs []string, req *NodeRequest, dialTimeout, readTimeout time.Duration, pooled bool, onFrame func(s *NodeStream, frame []byte) error) []NodeStream {
	dialTimeout = timeoutOrDefault(dialTimeout, defaultDialTimeout)
	readTimeout = timeoutOrDefault(readTimeout, defaultStreamTimeout)
	streams := make([]NodeStream, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		streams[i].Node = i
		wg.Add(1)
		go func(s *NodeStream, addr string) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				s.Err = fmt.Errorf("frontend: dial node %d at %s: %w", s.Node, addr, err)
				return
			}
			defer conn.Close()
			if err := WriteJSON(conn, req); err != nil {
				s.Err = fmt.Errorf("frontend: submit to node %d: %w", s.Node, err)
				return
			}
			s.Stats, s.frames, s.Err = readFrames(conn, bufio.NewReader(conn), readTimeout, pooled, s.Node,
				func(frame []byte) error { return onFrame(s, frame) })
			var qe *QueryError
			if s.Err != nil && !errors.As(s.Err, &qe) {
				s.Err = fmt.Errorf("frontend: node %d stream: %w", s.Node, s.Err)
			}
		}(&streams[i], addr)
	}
	wg.Wait()
	return streams
}

// excludedTolerated reports whether failed node i's missing stream is
// tolerable: at least one node succeeded, and every successful node's done
// stats list i as excluded — the mesh agreed node i died and completed the
// query degraded without it, so i's output was re-homed to survivors.
func excludedTolerated(i int, streams []NodeStream) bool {
	any := false
	for j, s := range streams {
		if j == i || s.Stats == nil {
			continue
		}
		if !slices.Contains(s.Stats.Excluded, i) {
			return false
		}
		any = true
	}
	return any
}

// settle decides a fanned-out query. A failed stream is tolerated — marked
// Excluded, its error kept for diagnosis — when the surviving nodes completed
// degraded and unanimously list its node as excluded: its chunks were
// re-homed onto replica holders, so the other streams are complete. Whatever
// it delivered before failing must go, or the survivors' re-delivery would
// double-count: its Chunks are dropped, and when the frames have left the
// caller's hands (retractable false) a stream that delivered any is not
// tolerated. Every other failure is reported, not just the first. On success
// the nodes' done stats are merged into the query's.
func settle(streams []NodeStream, retractable bool) (*DoneStats, error) {
	var errs []error
	for i := range streams {
		s := &streams[i]
		if s.Err == nil {
			continue
		}
		if (retractable || s.frames == 0) && excludedTolerated(i, streams) {
			s.Excluded, s.Chunks = true, nil
		} else {
			errs = append(errs, s.Err)
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	total := &DoneStats{Node: -1, TotalNodes: len(streams)}
	for _, s := range streams {
		st := s.Stats
		if st == nil {
			// Tolerated excluded node: no stats to merge.
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
			total.Degraded = true
			if len(st.Excluded) > len(total.Excluded) {
				total.Excluded = st.Excluded
			}
		}
		if st.Attempts > total.Attempts {
			total.Attempts = st.Attempts
		}
	}
	return total, nil
}
