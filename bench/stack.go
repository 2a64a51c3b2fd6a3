package main

import (
	"fmt"
	"net"

	"adr/internal/backend"
	"adr/internal/frontend"
	"adr/internal/rpc"
)

// stack is the live system under test, in-process on loopback sockets: four
// backend.Server daemons on a TCP mesh over the farm directory, and the
// frontend.Server that clients dial.
type stack struct {
	nodes     []*backend.Server
	front     *frontend.Server
	nodeAddrs []string
}

// startStack brings the daemons up with the adr-node defaults, except the
// chunk cache budget, which is sized against the dataset (see sizeFor).
func startStack(dir string, cacheBytes int64) (*stack, error) {
	// Pick ephemeral mesh ports: every node must know every address before
	// any of them listens, so reserve them all, then release them for the
	// nodes to bind.
	meshAddrs := make([]string, nodes)
	lns := make([]net.Listener, nodes)
	for i := range meshAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], meshAddrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	s := &stack{nodes: make([]*backend.Server, nodes), nodeAddrs: make([]string, nodes)}
	errs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			srv, err := backend.Start(backend.Config{
				Node:        rpc.NodeID(i),
				MeshAddrs:   meshAddrs,
				ControlAddr: "127.0.0.1:0",
				DataDir:     dir,
				CacheBytes:  cacheBytes,
				MaxQueries:  64,
			})
			s.nodes[i] = srv
			errs <- err
		}(i)
	}
	var first error
	for i := 0; i < nodes; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		s.Close()
		return nil, fmt.Errorf("start mesh: %w", first)
	}
	for i, n := range s.nodes {
		s.nodeAddrs[i] = n.ControlAddr()
	}
	front, err := frontend.Start("127.0.0.1:0", s.nodeAddrs)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.front = front
	return s, nil
}

// Close stops the front-end and every node.
func (s *stack) Close() {
	if s.front != nil {
		s.front.Close()
	}
	for _, n := range s.nodes {
		if n != nil {
			n.Close()
		}
	}
}
