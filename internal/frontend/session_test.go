package frontend

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"adr/internal/leakcheck"
	"adr/internal/metrics"
)

// estimatingNodes starts n fake nodes that answer an estimate request with
// DA and a query with their done stream, followed by whatever after appends
// (nil hangs up behind the answer).
func estimatingNodes(t *testing.T, n int, after ...[]byte) []*fakeNode {
	nodes := make([]*fakeNode, n)
	for i := range nodes {
		nodes[i] = startFakeNode(t, func(k int) [][]byte {
			if nodes[i].requests()[k].Estimate {
				return append([][]byte{ctl(&Message{Type: "estimate", Selection: &metrics.Selection{Strategy: "DA"}})}, after...)
			}
			return append(doneFrame(i), after...)
		})
	}
	return nodes
}

// TestSessionReuse: sequential queries, relayed or from a parallel client,
// ride one control connection per node. Under AUTO the estimate rides node
// 0's session too.
func TestSessionReuse(t *testing.T) {
	const queries = 20
	for _, mode := range []string{"relay", "parallel"} {
		for _, strategy := range []string{"DA", "AUTO"} {
			t.Run(mode+"/"+strategy, func(t *testing.T) {
				leakcheck.Check(t)
				nodes := estimatingNodes(t, 2)
				spec := &QuerySpec{Input: "pts", Output: "img", Strategy: strategy}
				var query func() error
				if mode == "relay" {
					client, err := Dial(startRelay(t, nodes...).Addr())
					if err != nil {
						t.Fatal(err)
					}
					defer client.Close()
					client.BusyRetries = -1
					query = func() error {
						chunks, _, err := client.Query(spec)
						if err == nil && len(chunks) != 2 {
							err = errors.New("want a chunk from each node")
						}
						return err
					}
				} else {
					pc, err := NewParallelClient([]string{nodes[0].ln.Addr().String(), nodes[1].ln.Addr().String()})
					if err != nil {
						t.Fatal(err)
					}
					defer pc.Close()
					pc.BusyRetries = -1
					query = func() error {
						_, err := pc.Query(spec)
						return err
					}
				}
				for q := 0; q < queries; q++ {
					if err := query(); err != nil {
						t.Fatalf("query %d: %v", q, err)
					}
				}
				for i, n := range nodes {
					want := int64(queries)
					if i == 0 && strategy == "AUTO" {
						want *= 2
					}
					if got := n.conns.Load(); got != 1 {
						t.Errorf("node %d accepted %d control connections over %d queries, want 1", i, got, queries)
					}
					if got := n.reqs.Load(); got != want {
						t.Errorf("node %d served %d requests, want %d", i, got, want)
					}
				}
			})
		}
	}
}

// TestSessionRedialAfterHangup: a node that closes the session behind every
// answer, as one serving a request per connection does, still answers every
// query. The pooled session is found stale before the answer's first byte
// and the request goes out again on a fresh connection, so the client sees
// no retry, nothing is learned dead, and no request reaches the node twice.
func TestSessionRedialAfterHangup(t *testing.T) {
	const queries = 10
	for _, strategy := range []string{"DA", "AUTO"} {
		t.Run(strategy, func(t *testing.T) {
			leakcheck.Check(t)
			nodes := estimatingNodes(t, 2, nil)
			fe := startRelay(t, nodes...)
			client, err := Dial(fe.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.BusyRetries = -1
			for q := 0; q < queries; q++ {
				if _, _, err := client.Query(&QuerySpec{Input: "pts", Output: "img", Strategy: strategy}); err != nil {
					t.Fatalf("query %d: %v", q, err)
				}
			}
			if dead := fe.dead.list(); len(dead) != 0 {
				t.Errorf("dead set = %v, want empty", dead)
			}
			for i, n := range nodes {
				reqs := n.requests()
				if got := n.conns.Load(); got != int64(len(reqs)) {
					t.Errorf("node %d: %d connections for %d requests, want one each", i, got, len(reqs))
				}
				seen := map[int32]bool{}
				queried := 0
				for _, r := range reqs {
					if r.Estimate {
						continue
					}
					if seen[r.QueryID] {
						t.Errorf("node %d ran query %d twice", i, r.QueryID)
					}
					seen[r.QueryID] = true
					queried++
				}
				if queried != queries {
					t.Errorf("node %d ran %d queries, want %d", i, queried, queries)
				}
			}
		})
	}
}

// TestSessionCutMidStreamFailsRetryably: a reused session cut after the
// answer's first frame is not resent — the node may have run the query — and
// fails the query retryably, as a fresh connection's cut does.
func TestSessionCutMidStreamFailsRetryably(t *testing.T) {
	leakcheck.Check(t)
	node := startFakeNode(t, func(n int) [][]byte {
		if n == 0 {
			return doneFrame(0)
		}
		return [][]byte{chunkFrame(fakeChunk(0)), nil}
	})
	client, err := Dial(startRelay(t, node).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.BusyRetries = -1
	spec := &QuerySpec{Input: "pts", Output: "img"}
	if _, _, err := client.Query(spec); err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Query(spec)
	var qe *QueryError
	if !errors.As(err, &qe) || !qe.Retryable || !strings.Contains(err.Error(), "node 0 stream") {
		t.Fatalf("cut reused session: err = %v, want node 0's retryable stream failure", err)
	}
	if got, reqs := node.conns.Load(), node.reqs.Load(); got != 1 || reqs != 2 {
		t.Errorf("node saw %d connections and %d requests, want 1 and 2", got, reqs)
	}
}

// TestSessionConcurrentQueries: concurrent clients of one front-end, and
// concurrent queries of one parallel client, share the resolver's pool.
// Every query is answered in full, no session carries two queries at once —
// a node never sees more connections than queries were in flight — and every
// session closes with its owner.
func TestSessionConcurrentQueries(t *testing.T) {
	const clients, queries = 4, 10
	leakcheck.Check(t)
	nodes := estimatingNodes(t, 2)
	fe := startRelay(t, nodes...)
	pc, err := NewParallelClient([]string{nodes[0].ln.Addr().String(), nodes[1].ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	errs := make(chan error, 2*clients*queries)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			client, err := Dial(fe.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for q := 0; q < queries; q++ {
				chunks, _, err := client.Query(&QuerySpec{Input: "pts", Output: "img", Strategy: "AUTO"})
				if err == nil && len(chunks) != 2 {
					err = fmt.Errorf("%d chunks, want one from each node", len(chunks))
				}
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				streams, err := pc.Query(&QuerySpec{Input: "pts", Output: "img", Strategy: "AUTO"})
				if err == nil && (len(streams[0].Chunks) != 1 || len(streams[1].Chunks) != 1) {
					err = fmt.Errorf("streams %+v, want one chunk from each node", streams)
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for i, n := range nodes {
		if got := n.conns.Load(); got > 2*clients {
			t.Errorf("node %d accepted %d connections, want at most %d (one per query in flight)", i, got, 2*clients)
		}
	}
}
