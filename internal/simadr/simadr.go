// Package simadr models ADR query execution on the paper's parallel machine
// with a discrete-event simulation, at chunk granularity. It exists because
// the paper's evaluation ran on a 128-node IBM SP: the simulator reproduces
// that machine's structure — per node one CPU, local disks, and a
// full-duplex network interface onto a switch (110 MB/s per direction) —
// and executes a real query plan (from internal/plan) through the four
// phases of §2.4, overlapping disk, network and compute exactly as ADR's
// operation queues do.
//
// What is simulated faithfully:
//   - every chunk read, forward, ghost transfer, combine and output, as
//     prescribed by the plan (the same plans the real engine executes);
//   - FIFO contention on each disk, NIC direction and CPU;
//   - per-tile phase dependencies, per node, with cross-node coupling only
//     through message arrivals (no global barriers, as in ADR).
//
// What is modeled with parameters: per-chunk compute costs (Table 1's
// I–LR–GC–OH milliseconds), disk seek+bandwidth and link latency+bandwidth.
package simadr

import (
	"fmt"

	"adr/internal/metrics"
)

// Machine describes the simulated parallel machine.
type Machine struct {
	Procs        int
	DisksPerNode int
	// DiskSeekSec is the fixed per-chunk positioning cost; DiskBWBytes the
	// sequential transfer rate.
	DiskSeekSec float64
	DiskBWBytes float64
	// NetLatencySec is the per-message latency; NetBWBytes the per-node,
	// per-direction link bandwidth (the SP's High Performance Switch
	// provides 110 MB/s peak per node, §4).
	NetLatencySec float64
	NetBWBytes    float64
	// NetCPUSecPerByte is the CPU time consumed per communicated byte on
	// each side (the software messaging overhead of the era's
	// message-passing stacks: buffer copies and protocol handling). This
	// is what makes communication-heavy strategies pay even when transfers
	// overlap other work — the effect behind DA's small-P penalty in Fig 8.
	NetCPUSecPerByte float64
}

// DefaultMachine returns the DESIGN.md machine model: late-90s SP thin
// nodes — 10 MB/s local disk with 10 ms positioning, 110 MB/s full-duplex
// link with 0.5 ms latency, one disk per node.
func DefaultMachine(procs int) Machine {
	return Machine{
		Procs:            procs,
		DisksPerNode:     1,
		DiskSeekSec:      0.010,
		DiskBWBytes:      10e6,
		NetLatencySec:    0.0005,
		NetBWBytes:       110e6,
		NetCPUSecPerByte: 15e-9, // ~66 MB/s of per-side message handling
	}
}

// Costs are the per-chunk computation costs of Table 1 (seconds). LR is per
// intersecting (input chunk, accumulator chunk) pair: "an input chunk that
// maps to a larger number of accumulator chunks takes longer to process."
type Costs struct {
	Init float64 // I: per accumulator chunk initialized
	LR   float64 // per aggregation pair
	GC   float64 // per ghost chunk combined
	OH   float64 // per output chunk finalized
}

// Options configures a simulation.
type Options struct {
	Machine Machine
	Costs   Costs
	// InitFromOutput simulates §2.4 phase 1's existing-output retrieval and
	// forwarding (Fig 7's "communication for replicated output blocks").
	InitFromOutput bool
	// WriteBack simulates writing finished output chunks to disk.
	WriteBack bool
	// Overlap enables ADR's asynchronous operation queues. Disabling it
	// serializes each node's disk, network and compute onto one resource —
	// the ablation for the §2.4 pipelining design.
	Overlap bool
}

// NodeStats is one simulated node's accounting.
type NodeStats struct {
	BytesSent, BytesRecv    int64
	BytesRead, BytesWritten int64
	MsgsSent, MsgsRecv      int64
	ChunksRead              int64
	// AggPairs counts (input chunk, accumulator chunk) aggregations and
	// Combines ghost accumulators combined — the live engine's AggOps and
	// CombineOps.
	AggPairs, Combines int64
	// PhaseComputeSec is CPU time attributed per §2.4 phase.
	PhaseComputeSec [4]float64
	DiskSec         float64
	NetSec          float64
	FinishSec       float64
}

// ComputeSec returns the node's total CPU time.
func (n *NodeStats) ComputeSec() float64 {
	var t float64
	for _, p := range n.PhaseComputeSec {
		t += p
	}
	return t
}

// CommBytes returns the node's total communication volume.
func (n *NodeStats) CommBytes() int64 { return n.BytesSent + n.BytesRecv }

// Result is a completed simulation.
type Result struct {
	// ExecSec is the makespan: the time the last node finishes.
	ExecSec float64
	Nodes   []NodeStats
	Events  int64
}

// MaxCommBytes returns the largest per-node communication volume (the
// quantity Fig 9(a)-(b) plots per processor).
func (r *Result) MaxCommBytes() int64 {
	var m int64
	for i := range r.Nodes {
		if v := r.Nodes[i].CommBytes(); v > m {
			m = v
		}
	}
	return m
}

// AvgCommBytes returns the mean per-node communication volume.
func (r *Result) AvgCommBytes() float64 {
	var t int64
	for i := range r.Nodes {
		t += r.Nodes[i].CommBytes()
	}
	return float64(t) / float64(len(r.Nodes))
}

// MaxComputeSec returns the largest per-node computation time (Fig 9(c)-(d):
// imperfect scaling shows up here — DA through load imbalance, FRA/SRA
// through replicated init/combine overhead).
func (r *Result) MaxComputeSec() float64 {
	var m float64
	for i := range r.Nodes {
		if v := r.Nodes[i].ComputeSec(); v > m {
			m = v
		}
	}
	return m
}

// AvgComputeSec returns the mean per-node computation time.
func (r *Result) AvgComputeSec() float64 {
	var t float64
	for i := range r.Nodes {
		t += r.Nodes[i].ComputeSec()
	}
	return t / float64(len(r.Nodes))
}

// Validate checks the options.
func (o *Options) Validate() error {
	m := o.Machine
	if m.Procs < 1 || m.DisksPerNode < 1 {
		return fmt.Errorf("simadr: machine needs >=1 proc and disk, got %d/%d", m.Procs, m.DisksPerNode)
	}
	if m.DiskBWBytes <= 0 || m.NetBWBytes <= 0 {
		return fmt.Errorf("simadr: bandwidths must be positive")
	}
	if m.DiskSeekSec < 0 || m.NetLatencySec < 0 {
		return fmt.Errorf("simadr: negative latency")
	}
	if o.Costs.Init < 0 || o.Costs.LR < 0 || o.Costs.GC < 0 || o.Costs.OH < 0 {
		return fmt.Errorf("simadr: negative costs")
	}
	return nil
}

// phase indices shared with the metrics package.
const (
	phaseI  = int(metrics.Initialization)
	phaseLR = int(metrics.LocalReduction)
	phaseGC = int(metrics.GlobalCombine)
	phaseOH = int(metrics.OutputHandling)
)
