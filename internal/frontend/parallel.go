package frontend

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// ParallelClient is the parallel-client interface of Fig 2 (the role
// Meta-Chaos played in the original system: "the Meta-Chaos interface is
// mainly used for parallel clients"). Instead of funnelling every output
// chunk through the front-end, a parallel client talks to each back-end
// node's control port directly, on a session it keeps open across queries,
// and consumes the per-node output streams concurrently — each stream
// carries exactly the chunks that node owns, so a data-parallel consumer
// (another simulation, a renderer farm) receives its partition without a
// central merge. Close it to close those sessions.
//
// Query-id discipline: the front-end owns the positive id half; parallel
// clients draw from the negative half. Ids are allocated from a 64-bit
// counter folded into the client's [lo, hi] range, so the id can never wrap
// into the front-end's positive space no matter how many queries are
// issued. Two parallel clients sharing one mesh MUST NOT share a range —
// build them with NewParallelClientSlot to carve the negative space into
// disjoint sub-ranges.
type ParallelClient struct {
	nodeAddrs []string
	next      atomic.Int64
	// lo <= hi <= -1: the id range this client cycles through, newest ids
	// first (hi, hi-1, ..., lo, hi, ...).
	lo, hi int32
	// dead is the set of nodes every query runs without: a parallel client
	// is its own resolver.
	dead deadSet
	// sessions holds the node connections kept open across queries.
	sessions sessions

	// DialTimeout bounds each per-node connect (0 selects 10 s, negative
	// disables); ReadTimeout bounds each frame read on a node stream (0
	// selects 2 min, negative disables). A dead node's
	// stream fails within the timeout instead of hanging the whole query.
	DialTimeout time.Duration
	ReadTimeout time.Duration
	// BusyRetries is how many times Query resubmits the whole query — under a
	// fresh id, with jittered backoff, without the nodes learned dead — when
	// every node failure is retryable (0 selects 3, negative disables).
	BusyRetries int
}

// NewParallelClient builds a client owning the whole negative id half. Use
// NewParallelClientSlot when more than one parallel client shares the mesh.
func NewParallelClient(nodeAddrs []string) (*ParallelClient, error) {
	return newParallelClient(nodeAddrs, math.MinInt32, -1)
}

// NewParallelClientSlot builds a client owning slot slot (0-based) of the
// negative id space divided into slots equal disjoint ranges, so several
// parallel clients can share one mesh without id collisions. All clients of
// a mesh must agree on slots.
func NewParallelClientSlot(nodeAddrs []string, slot, slots int) (*ParallelClient, error) {
	if slots < 1 || slot < 0 || slot >= slots {
		return nil, fmt.Errorf("frontend: slot %d of %d out of range", slot, slots)
	}
	total := int64(1) << 31 // ids -1 down to -2^31
	per := total / int64(slots)
	hi := int64(-1) - int64(slot)*per
	lo := hi - per + 1
	return newParallelClient(nodeAddrs, int32(lo), int32(hi))
}

func newParallelClient(nodeAddrs []string, lo, hi int32) (*ParallelClient, error) {
	if len(nodeAddrs) == 0 {
		return nil, fmt.Errorf("frontend: parallel client needs back-end addresses")
	}
	return &ParallelClient{nodeAddrs: nodeAddrs, lo: lo, hi: hi}, nil
}

// nextID allocates the next query id: a 64-bit counter folded into the
// client's range. The fold guards the wrap — after exhausting the range the
// ids cycle within it instead of overflowing int32 into the front-end's
// positive space (the old `atomic.Int32.Add(-1)` did exactly that after
// 2^31 queries).
func (c *ParallelClient) nextID() int32 {
	n := c.next.Add(1) - 1
	span := int64(c.hi) - int64(c.lo) + 1
	return int32(int64(c.hi) - n%span)
}

// Close closes the client's idle node sessions. A query still running closes
// its sessions when it ends, and the client stays usable: later queries dial
// per node and close behind themselves.
func (c *ParallelClient) Close() error {
	c.sessions.Close()
	return nil
}

// NodeStream is one back-end node's portion of a query result.
type NodeStream struct {
	Node   int
	Chunks []*ChunkJSON
	Stats  *DoneStats
	Err    error
	// Excluded marks a node the resolver knows dead: it was not asked, and
	// the query was planned without it (NodeRequest.Exclude), its output
	// re-homed onto the other streams, whose chunk set is complete.
	Excluded bool
}

// Query submits the spec to every node and returns the per-node streams,
// consumed concurrently. The caller sees the output partitioned by owning
// node — the layout a parallel consumer wants.
//
// A node the client has learned dead is not asked: its entry comes back
// Excluded, with no chunks. Any failure fails the query with every node's
// error joined. When every failure is retryable — admission "busy", a node's
// death — the whole query is resubmitted under a fresh id up to BusyRetries
// times with jittered backoff, without the nodes the failure reported dead:
// a mid-query death still returns the complete result.
func (c *ParallelClient) Query(spec *QuerySpec) (streams []NodeStream, err error) {
	err = retryBusy(c.BusyRetries, func() error {
		streams, err = c.queryOnce(spec)
		return err
	})
	return streams, err
}

func (c *ParallelClient) queryOnce(spec *QuerySpec) ([]NodeStream, error) {
	// A parallel client is its own resolver (no front-end in the path): of
	// AUTO and of the dead set.
	exclude := c.dead.list()
	spec, sel, err := resolveSpec(&c.sessions, c.nodeAddrs, exclude, spec, c.DialTimeout, c.ReadTimeout)
	if err != nil {
		return nil, err
	}
	req := &NodeRequest{QueryID: c.nextID(), Spec: *spec, Exclude: exclude}
	streams := fanOut(&c.sessions, c.nodeAddrs, req, c.DialTimeout, c.ReadTimeout, false, func(s *NodeStream, frame []byte) error {
		cj, err := decodeFrame(frame)
		if err == nil {
			s.Chunks = append(s.Chunks, cj)
		}
		return err
	})
	total, err := settle(streams)
	if err != nil {
		c.dead.learn(err, len(c.nodeAddrs))
		return streams, err
	}
	finishAuto(sel, total)
	// Surface the selection on every node's done stats, so any stream a
	// parallel consumer holds names the choice.
	for _, s := range streams {
		if s.Stats != nil {
			s.Stats.Selection = sel
		}
	}
	return streams, nil
}
