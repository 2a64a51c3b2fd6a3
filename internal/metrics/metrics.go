// Package metrics is ADR's observability layer. It has three parts, all
// sharing one naming scheme so simulated and live runs are directly
// comparable:
//
//   - Per-query accounting: Node accumulates one back-end node's counters
//     for one query — the quantities the paper's evaluation plots (§4,
//     Figs 8–9): I/O volume, communication volume and per-phase computation
//     time. The phase-attributed view of the same counters is exported as a
//     NodeTrace (one PhaseSpan per §2.4 phase) and assembled per query into
//     a QueryTrace.
//
//   - Process-wide metrics: Registry holds named counters, gauges and
//     histograms (e.g. adr_rpc_sent_bytes_total, adr_disk_read_seconds)
//     that the RPC transports, the disk stores, the engine and the daemons
//     record into. The Default registry is the process-wide instance.
//
//   - The HTTP surface: Serve exposes a registry at /metrics (Prometheus
//     text and JSON) and a QueryLog — in-flight and recent queries with a
//     slow-query log — at /debug/queries. Both daemons mount it behind
//     their -metrics-addr flag.
//
// Counters are updated with atomics so the engine's pipelined goroutines
// record without coordination.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Phase indexes the four query-execution phases of §2.4.
type Phase int

const (
	// Initialization allocates and initializes accumulator chunks.
	Initialization Phase = iota
	// LocalReduction aggregates local (and, for DA, forwarded) input chunks.
	LocalReduction
	// GlobalCombine merges ghost accumulators into their homes.
	GlobalCombine
	// OutputHandling finalizes accumulators into output chunks.
	OutputHandling
	numPhases
)

// String returns the paper's abbreviation for the phase (Table 1 uses
// I–LR–GC–OH).
func (p Phase) String() string {
	switch p {
	case Initialization:
		return "I"
	case LocalReduction:
		return "LR"
	case GlobalCombine:
		return "GC"
	case OutputHandling:
		return "OH"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Node accumulates one back-end node's counters for one query.
type Node struct {
	BytesRead    atomic.Int64 // input + output chunks read from local disks
	BytesWritten atomic.Int64 // output chunks written back
	BytesSent    atomic.Int64 // payload bytes sent to other nodes
	BytesRecv    atomic.Int64 // payload bytes received
	ChunksRead   atomic.Int64
	MsgsSent     atomic.Int64
	MsgsRecv     atomic.Int64
	// AggOps counts (input chunk, accumulator chunk) aggregation pairs —
	// the unit the paper's LR compute cost is defined over.
	AggOps     atomic.Int64
	CombineOps atomic.Int64
	// CacheHits counts chunk reads served by the node's chunk cache instead
	// of a disk read (ChunksRead still counts them; BytesRead too, since the
	// engine consumed the bytes either way).
	CacheHits atomic.Int64
	// ReplicaFallbackReads counts chunk reads served from a non-primary
	// replica holder because the primary's node was excluded from the query
	// (degraded-mode execution).
	ReplicaFallbackReads atomic.Int64
	// CompressedBytes counts compressed payload bytes this node decompressed:
	// the local reads it aggregates (disk or cache; a read it only forwards
	// is never decompressed here) and the stored chunks it receives
	// (forwarded inputs, existing outputs). Zero means every payload it
	// consumed arrived raw; ghosts and shipped outputs always do.
	CompressedBytes atomic.Int64
	// DecodeNanos is the cumulative wall time workers spent decoding
	// payloads — input chunks (chunk.DecodeInto, into a recycled chunk) in
	// local reduction, ghost accumulators (App.DecodeAccum) in global
	// combine — including decompression when payloads arrive compressed, and
	// QueueWaitNanos the cumulative time work items waited in the
	// pipeline queue before a worker picked them up. Both are summed across
	// workers, so with W workers they may exceed the phase wall time — the
	// ratio QueueWaitNanos/phase time is the pipeline's backlog signal.
	DecodeNanos    atomic.Int64
	QueueWaitNanos atomic.Int64
	// CreditStalls counts sends that blocked on flow-control credit (the
	// per-peer forwarding window was exhausted) and CreditStallNanos the
	// cumulative time they spent blocked. Summed across the node's
	// sending goroutines; the ratio CreditStallNanos/phase time says how
	// hard the receiver's consumption rate throttled this node.
	CreditStalls     atomic.Int64
	CreditStallNanos atomic.Int64
	// DiskReadNanos/DiskReadBytes time the chunk reads that actually hit
	// this node's storage — cache hits are excluded, unlike BytesRead, which
	// counts every byte the engine consumed. Their ratio is the node's
	// observed disk bandwidth, the signal costmodel.Calibration learns from.
	DiskReadNanos atomic.Int64
	DiskReadBytes atomic.Int64
	// NetSendNanos times the engine's outbound mesh sends (including any
	// flow-control stall inside them); with BytesSent it yields the node's
	// observed effective link bandwidth for calibration.
	NetSendNanos atomic.Int64
	phaseNanos   [numPhases]atomic.Int64
	// phaseIO attributes the traffic counters above to the phase that
	// incurred them; AddRead/AddSent/AddRecv update totals and phase
	// together, and Trace exports the per-phase view.
	phaseIO [numPhases]phaseCounters
}

// AddPhase records elapsed wall time attributed to a phase.
func (n *Node) AddPhase(p Phase, d time.Duration) {
	n.phaseNanos[p].Add(int64(d))
}

// Snapshot is an immutable copy of a Node's counters, safe to aggregate and
// serialize.
type Snapshot struct {
	BytesRead            int64
	BytesWritten         int64
	BytesSent            int64
	BytesRecv            int64
	ChunksRead           int64
	MsgsSent             int64
	MsgsRecv             int64
	AggOps               int64
	CombineOps           int64
	CacheHits            int64
	ReplicaFallbackReads int64
	CompressedBytes      int64
	DecodeNanos          int64
	QueueWaitNanos       int64
	CreditStalls         int64
	CreditStallNanos     int64
	DiskReadNanos        int64
	DiskReadBytes        int64
	NetSendNanos         int64
	PhaseNanos           [4]int64
}

// Snapshot captures the current counter values.
func (n *Node) Snapshot() Snapshot {
	var s Snapshot
	s.BytesRead = n.BytesRead.Load()
	s.BytesWritten = n.BytesWritten.Load()
	s.BytesSent = n.BytesSent.Load()
	s.BytesRecv = n.BytesRecv.Load()
	s.ChunksRead = n.ChunksRead.Load()
	s.MsgsSent = n.MsgsSent.Load()
	s.MsgsRecv = n.MsgsRecv.Load()
	s.AggOps = n.AggOps.Load()
	s.CombineOps = n.CombineOps.Load()
	s.CacheHits = n.CacheHits.Load()
	s.ReplicaFallbackReads = n.ReplicaFallbackReads.Load()
	s.CompressedBytes = n.CompressedBytes.Load()
	s.DecodeNanos = n.DecodeNanos.Load()
	s.QueueWaitNanos = n.QueueWaitNanos.Load()
	s.CreditStalls = n.CreditStalls.Load()
	s.CreditStallNanos = n.CreditStallNanos.Load()
	s.DiskReadNanos = n.DiskReadNanos.Load()
	s.DiskReadBytes = n.DiskReadBytes.Load()
	s.NetSendNanos = n.NetSendNanos.Load()
	for p := 0; p < int(numPhases); p++ {
		s.PhaseNanos[p] = n.phaseNanos[p].Load()
	}
	return s
}

// Add merges another snapshot into s.
func (s *Snapshot) Add(o Snapshot) {
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.ChunksRead += o.ChunksRead
	s.MsgsSent += o.MsgsSent
	s.MsgsRecv += o.MsgsRecv
	s.AggOps += o.AggOps
	s.CombineOps += o.CombineOps
	s.CacheHits += o.CacheHits
	s.ReplicaFallbackReads += o.ReplicaFallbackReads
	s.CompressedBytes += o.CompressedBytes
	s.DecodeNanos += o.DecodeNanos
	s.QueueWaitNanos += o.QueueWaitNanos
	s.CreditStalls += o.CreditStalls
	s.CreditStallNanos += o.CreditStallNanos
	s.DiskReadNanos += o.DiskReadNanos
	s.DiskReadBytes += o.DiskReadBytes
	s.NetSendNanos += o.NetSendNanos
	for p := range s.PhaseNanos {
		s.PhaseNanos[p] += o.PhaseNanos[p]
	}
}
