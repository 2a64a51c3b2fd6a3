package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// A query trace is the live engine's analogue of the paper's §4 accounting:
// for every back-end node, one span per execution phase (I, LR, GC, OH)
// carrying the wall time spent in the phase and the I/O and communication
// volume attributed to it. The engine fills a Node as it runs; RunNodeTraced
// converts it to a NodeTrace; the front-end assembles the per-node traces
// into a QueryTrace it returns alongside the query result.

// PhaseSpan is one node's accounting for one execution phase.
type PhaseSpan struct {
	Phase      string `json:"phase"` // "I" | "LR" | "GC" | "OH"
	Nanos      int64  `json:"nanos"` // compute wall time attributed to the phase
	BytesRead  int64  `json:"bytes_read,omitempty"`
	BytesSent  int64  `json:"bytes_sent,omitempty"`
	BytesRecv  int64  `json:"bytes_recv,omitempty"`
	ChunksRead int64  `json:"chunks_read,omitempty"`
	MsgsSent   int64  `json:"msgs_sent,omitempty"`
	MsgsRecv   int64  `json:"msgs_recv,omitempty"`
}

// NodeTrace is one back-end node's complete accounting for one query.
type NodeTrace struct {
	Node      int   `json:"node"`
	Tiles     int   `json:"tiles"`
	WallNanos int64 `json:"wall_nanos"` // end-to-end node execution time
	// Workers is the execution-pipeline width the node ran with (Config.
	// Workers after defaulting); 1 means the pre-pipeline serial behaviour.
	Workers int         `json:"workers,omitempty"`
	Phases  []PhaseSpan `json:"phases"` // always the four §2.4 phases, in order
	Totals  Snapshot    `json:"totals"`
	// Degraded reports that the node ran a plan made with one or more dead
	// processors excluded (engine.Config.Exclude: their chunks read from
	// surviving replica holders); Excluded lists them.
	Degraded bool  `json:"degraded,omitempty"`
	Excluded []int `json:"excluded,omitempty"`
}

// StrategyEstimate is the cost model's prediction for one candidate
// strategy, as reported through a query trace.
type StrategyEstimate struct {
	Strategy     string  `json:"strategy"`
	PredictedSec float64 `json:"predicted_sec"`
	// CommBytes is the predicted per-node maximum communication volume.
	CommBytes int64 `json:"comm_bytes,omitempty"`
	Tiles     int   `json:"tiles,omitempty"`
}

// Selection records how an AUTO query's strategy was chosen: which node's
// calibrated cost model produced the estimates, what every candidate was
// predicted to cost, and — once the query finishes — how the prediction
// compared to reality.
type Selection struct {
	// Strategy is the chosen (cheapest-predicted) strategy.
	Strategy string `json:"strategy"`
	// Node served the estimates (its calibration priced the candidates).
	Node int `json:"node"`
	// PredictedSec is the chosen strategy's predicted execution time.
	PredictedSec float64 `json:"predicted_sec"`
	// ActualSec is the measured execution time (slowest node), filled in
	// after the query completes; 0 while in flight.
	ActualSec float64 `json:"actual_sec,omitempty"`
	// Estimates lists every candidate's prediction, fastest first.
	Estimates []StrategyEstimate `json:"estimates,omitempty"`
}

// QueryTrace is the per-node, per-phase trace of one query's execution
// across the parallel back-end.
type QueryTrace struct {
	QueryID int32       `json:"query_id"`
	Nodes   []NodeTrace `json:"nodes"`
	// Selection, on AUTO queries, records the cost-model strategy choice
	// with its per-candidate estimates and predicted-vs-actual time.
	Selection *Selection `json:"selection,omitempty"`
}

// Total sums the per-node totals.
func (t *QueryTrace) Total() Snapshot {
	var s Snapshot
	for _, n := range t.Nodes {
		s.Add(n.Totals)
	}
	return s
}

// MaxWall returns the slowest node's wall time — the distributed analogue
// of the simulator's makespan.
func (t *QueryTrace) MaxWall() time.Duration {
	var max int64
	for _, n := range t.Nodes {
		if n.WallNanos > max {
			max = n.WallNanos
		}
	}
	return time.Duration(max)
}

// String renders the trace as an aligned per-node table, one row per node,
// phase times in milliseconds — the shape of the paper's Figs 8–9 columns.
func (t *QueryTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %d: %d nodes, wall %.1fms\n", t.QueryID, len(t.Nodes), float64(t.MaxWall())/1e6)
	if s := t.Selection; s != nil {
		fmt.Fprintf(&b, "auto: chose %s (predicted %.3fs, actual %.3fs, node %d's model)\n",
			s.Strategy, s.PredictedSec, s.ActualSec, s.Node)
	}
	fmt.Fprintf(&b, "%-5s %8s %8s %8s %8s %10s %10s %10s\n",
		"node", "I ms", "LR ms", "GC ms", "OH ms", "read B", "sent B", "recv B")
	for _, n := range t.Nodes {
		row := [4]float64{}
		for i, p := range n.Phases {
			if i < 4 {
				row[i] = float64(p.Nanos) / 1e6
			}
		}
		fmt.Fprintf(&b, "%-5d %8.2f %8.2f %8.2f %8.2f %10d %10d %10d\n",
			n.Node, row[0], row[1], row[2], row[3],
			n.Totals.BytesRead, n.Totals.BytesSent, n.Totals.BytesRecv)
	}
	return b.String()
}

// phaseCounters is the per-phase slice of a Node's traffic counters.
type phaseCounters struct {
	bytesRead  atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	chunksRead atomic.Int64
	msgsSent   atomic.Int64
	msgsRecv   atomic.Int64
}

// AddRead records one chunk read from local disk during phase p, updating
// both the node totals and the phase span.
func (n *Node) AddRead(p Phase, bytes int64) {
	n.BytesRead.Add(bytes)
	n.ChunksRead.Add(1)
	n.phaseIO[p].bytesRead.Add(bytes)
	n.phaseIO[p].chunksRead.Add(1)
}

// AddSent records one message sent during phase p.
func (n *Node) AddSent(p Phase, payloadBytes int64) {
	n.BytesSent.Add(payloadBytes)
	n.MsgsSent.Add(1)
	n.phaseIO[p].bytesSent.Add(payloadBytes)
	n.phaseIO[p].msgsSent.Add(1)
}

// AddRecv records one message received during phase p.
func (n *Node) AddRecv(p Phase, payloadBytes int64) {
	n.BytesRecv.Add(payloadBytes)
	n.MsgsRecv.Add(1)
	n.phaseIO[p].bytesRecv.Add(payloadBytes)
	n.phaseIO[p].msgsRecv.Add(1)
}

// Trace converts the node's counters into a NodeTrace.
func (n *Node) Trace(node, tiles int, wall time.Duration) NodeTrace {
	t := NodeTrace{
		Node:      node,
		Tiles:     tiles,
		WallNanos: int64(wall),
		Phases:    make([]PhaseSpan, numPhases),
		Totals:    n.Snapshot(),
	}
	for p := Phase(0); p < numPhases; p++ {
		io := &n.phaseIO[p]
		t.Phases[p] = PhaseSpan{
			Phase:      p.String(),
			Nanos:      n.phaseNanos[p].Load(),
			BytesRead:  io.bytesRead.Load(),
			BytesSent:  io.bytesSent.Load(),
			BytesRecv:  io.bytesRecv.Load(),
			ChunksRead: io.chunksRead.Load(),
			MsgsSent:   io.msgsSent.Load(),
			MsgsRecv:   io.msgsRecv.Load(),
		}
	}
	return t
}
