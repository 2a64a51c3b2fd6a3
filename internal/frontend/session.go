package frontend

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// session is one control connection to a back-end node, with the reader
// that owns whatever the connection has buffered. A node serves request
// after request on one session, so a session outlives the request it was
// dialled for.
type session struct {
	conn net.Conn
	r    *bufio.Reader
}

// sessions is a resolver's pool of idle control sessions, by node address:
// the front-end's relay and a parallel client each own one, so a query and
// its AUTO estimate ride the connections the previous query left open. A nil
// *sessions pools nothing: every request dials, and every session is closed
// after its answer.
type sessions struct {
	mu     sync.Mutex
	idle   map[string][]*session
	closed bool
}

// take removes and returns an idle session to addr, or nil if none is idle.
func (p *sessions) take(addr string) *session {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.idle[addr]
	if len(idle) == 0 {
		return nil
	}
	s := idle[len(idle)-1]
	p.idle[addr] = idle[:len(idle)-1]
	return s
}

// put hands back s, whose last answer — a done or estimate line — was read
// cleanly to its end. It is pooled for the next request to addr, or closed
// when there is no pool or the pool is closed. A session that failed in any
// way is closed by its user instead: its stream may be out of step.
func (p *sessions) put(addr string, s *session) {
	s.conn.SetReadDeadline(time.Time{})
	if p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if !p.closed {
			if p.idle == nil {
				p.idle = make(map[string][]*session)
			}
			p.idle[addr] = append(p.idle[addr], s)
			return
		}
	}
	s.conn.Close()
}

// Close closes every idle session. A session in use is closed when its
// request ends.
func (p *sessions) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, list := range idle {
		for _, s := range list {
			s.conn.Close()
		}
	}
}

// send submits req to node at addr — on an idle session when p has one,
// else on a fresh connection bounded by dialTimeout — and waits, bounded by
// readTimeout (0 waits forever), for the first byte of the answer, which
// the caller then reads off the returned session. A pooled session whose
// connection is lost before that byte is stale: it is closed and the request
// resent once, on a fresh connection. That cannot run a query twice, because
// a node writes the answer to every request it parses before it closes the
// session (backend.Server.handle): one that closed without answering never
// read the request. A fresh connection's failure is returned as is.
func (p *sessions) send(node int, addr string, req *NodeRequest, dialTimeout, readTimeout time.Duration) (*session, error) {
	if s := p.take(addr); s != nil {
		err := s.submit(node, req, readTimeout)
		if err == nil {
			return s, nil
		}
		s.conn.Close()
		if !connLost(err) {
			return nil, err
		}
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("frontend: dial node %d at %s: %w", node, addr, err)
	}
	s := &session{conn: conn, r: bufio.NewReader(conn)}
	if err := s.submit(node, req, readTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// submit writes req and waits for the first byte of its answer.
func (s *session) submit(node int, req *NodeRequest, readTimeout time.Duration) error {
	if err := WriteJSON(s.conn, req); err != nil {
		return fmt.Errorf("frontend: submit to node %d: %w", node, err)
	}
	if readTimeout > 0 {
		s.conn.SetReadDeadline(time.Now().Add(readTimeout))
	}
	if _, err := s.r.Peek(1); err != nil {
		return fmt.Errorf("frontend: node %d stream: %w", node, err)
	}
	return nil
}
