package rpc

import (
	"fmt"
	"net"
	"sync"
)

// TCPMesh is a Fabric of TCP nodes running in a single process, used for
// multi-"process" integration tests and for running the full back-end on one
// host. Every node's listener is bound before any node dials, so mesh
// establishment is race-free.
type TCPMesh struct {
	nodes []*TCPNode
}

// NewLoopbackMesh starts an n-node TCP mesh on 127.0.0.1 ephemeral ports.
func NewLoopbackMesh(n int, opts TCPOptions) (*TCPMesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("rpc: mesh needs at least 1 node, got %d", n)
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, fmt.Errorf("rpc: reserve port for node %d: %w", i, err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	mesh := &TCPMesh{nodes: make([]*TCPNode, n)}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node, err := NewTCPNodeWithListener(NodeID(i), addrs, listeners[i], opts)
			mesh.nodes[i], errs[i] = node, err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			mesh.Close()
			return nil, err
		}
	}
	return mesh, nil
}

// Endpoint returns node id's endpoint.
func (m *TCPMesh) Endpoint(id NodeID) (Endpoint, error) {
	if id < 0 || int(id) >= len(m.nodes) {
		return nil, fmt.Errorf("rpc: no endpoint %d in %d-node mesh", id, len(m.nodes))
	}
	return m.nodes[id], nil
}

// Close closes every node. Every node shuts before any connection closes:
// no node is left to see a peer die, so the shutdown stays out of the
// failure metrics and delivers no peer-down notices, as InprocFabric.Close.
func (m *TCPMesh) Close() error {
	for _, n := range m.nodes {
		if n != nil {
			n.shut()
		}
	}
	for _, n := range m.nodes {
		if n != nil {
			n.Close()
		}
	}
	return nil
}
