// Package costmodel implements the paper's stated long-term goal (§6):
// "develop simple but reasonably accurate cost models to guide and automate
// the selection of an appropriate strategy."
//
// The model is analytic — no event simulation. For every tile it accounts
// each node's demand on its four resources (disks, CPU, outbound and
// inbound link) exactly as the plan prescribes, and approximates the
// overlapped execution time of the tile as the per-node maximum of the
// resource demands (ADR's operation queues keep all resources busy
// concurrently), taking the slowest node as the tile's makespan. Summing
// tiles gives the query estimate. Compared to the discrete-event simulator
// (internal/simadr), the model ignores pipeline-fill latency and transient
// queueing — the §6 question "under what circumstances do the simple cost
// models provide accurate or inaccurate results?" is answered empirically
// by this package's tests and by cmd/adr-bench -exp select.
package costmodel

import (
	"fmt"
	"sort"

	"adr/internal/plan"
	"adr/internal/simadr"
)

// Estimate is the model's prediction for one plan.
type Estimate struct {
	Strategy plan.Strategy
	// ExecSec is the predicted query execution time.
	ExecSec float64
	// Per-node peak demands (seconds), for diagnosis.
	MaxDiskSec, MaxCPUSec, MaxNetSec float64
	// CommBytes is the predicted per-processor maximum communication
	// volume (send+recv).
	CommBytes int64
	// Tiles echoes the plan's tile count.
	Tiles int
}

// nodeTileDemand accumulates one node's resource demands within a tile.
type nodeTileDemand struct {
	diskSec map[int32]float64 // per local disk; nil until the node reads
	cpuSec  float64
	outSec  float64
	inSec   float64
	sent    int64
	recv    int64
}

// Predict estimates the execution time of a plan on the modeled machine. It
// prices each processor's per-tile share (plan.Schedule) — the same reading
// of the plan the engine executes and the simulator replays.
func Predict(p *plan.Plan, w *plan.Workload, m simadr.Machine, c simadr.Costs) (Estimate, error) {
	if m.Procs != p.Machine.Procs {
		return Estimate{}, fmt.Errorf("costmodel: machine has %d procs, plan %d", m.Procs, p.Machine.Procs)
	}
	est := Estimate{Strategy: p.Strategy, Tiles: len(p.Tiles)}
	procs := m.Procs
	commPerNode := make([]int64, procs)
	sched := plan.Schedule(p, w)

	readTime := func(bytes int64) float64 { return m.DiskSeekSec + float64(bytes)/m.DiskBWBytes }
	// send charges one transfer to both ends of stage: link time, messaging
	// CPU and volume on the sender's outbound and the receiver's inbound side.
	send := func(stage []nodeTileDemand, src, dst int32, bytes int64) {
		xfer, cpu := float64(bytes)/m.NetBWBytes, float64(bytes)*m.NetCPUSecPerByte
		stage[src].outSec += xfer
		stage[src].cpuSec += cpu
		stage[src].sent += bytes
		stage[dst].inSec += xfer
		stage[dst].cpuSec += cpu
		stage[dst].recv += bytes
	}

	for t := range p.Tiles {
		// The tile runs in two serialized stages per node: the reduction
		// stage (initialization, local reads, input forwarding and
		// aggregation — all overlapped by the operation queues) and the
		// combine/output stage (ghost exchange, combining, output
		// handling), which cannot start on a node until its reduction
		// completes.
		reduce := make([]nodeTileDemand, procs)
		combine := make([]nodeTileDemand, procs)

		// Pipeline fill: the first chunk must be read before any
		// aggregation can overlap it.
		var fill float64

		for q := range sched {
			sh, self := &sched[q][t], int32(q)
			reduce[q].cpuSec += float64(sh.Allocs()) * c.Init
			// Local reads and aggregation; each forward costs both links and
			// the aggregation at the receiver.
			for k, i := range sh.Reads {
				im := w.Inputs[i]
				rt := readTime(im.Bytes)
				if reduce[q].diskSec == nil {
					reduce[q].diskSec = make(map[int32]float64)
				}
				reduce[q].diskSec[im.Disk] += rt
				reduce[q].cpuSec += float64(sh.ReadPairs[k]) * c.LR
				if k == 0 && rt > fill {
					fill = rt
				}
				for _, d := range sh.Dests(k) {
					send(reduce, self, d.To, im.Bytes)
					reduce[d.To].cpuSec += float64(d.Pairs) * c.LR
				}
			}
			// Ghost exchange: each ghost is sent to its home and combined there.
			for _, o := range sh.Ghosts {
				send(combine, self, p.Home[o], w.AccSize(o))
				combine[p.Home[o]].cpuSec += c.GC
			}
			// Output handling (+ hybrid shipping to owners).
			for _, o := range sh.Locals {
				combine[q].cpuSec += c.OH
				if owner := w.Outputs[o].Node; owner != self {
					send(combine, self, owner, w.Outputs[o].Bytes)
				}
			}
		}

		// Tile makespan: slowest node per stage, stages serialized, plus
		// the pipeline fill.
		stageSec := func(demands []nodeTileDemand) float64 {
			var worst float64
			for q := 0; q < procs; q++ {
				d := &demands[q]
				var disk float64
				for _, v := range d.diskSec {
					if v > disk {
						disk = v
					}
				}
				nodeSec := disk
				if d.cpuSec > nodeSec {
					nodeSec = d.cpuSec
				}
				if d.outSec > nodeSec {
					nodeSec = d.outSec
				}
				if d.inSec > nodeSec {
					nodeSec = d.inSec
				}
				if nodeSec > worst {
					worst = nodeSec
				}
				if disk > est.MaxDiskSec {
					est.MaxDiskSec = disk
				}
				if d.cpuSec > est.MaxCPUSec {
					est.MaxCPUSec = d.cpuSec
				}
				if net := d.outSec + d.inSec; net > est.MaxNetSec {
					est.MaxNetSec = net
				}
				commPerNode[q] += d.sent + d.recv
			}
			return worst
		}
		est.ExecSec += stageSec(reduce) + stageSec(combine) + fill
	}
	for _, v := range commPerNode {
		est.CommBytes = max(est.CommBytes, v)
	}
	return est, nil
}

// Select plans a workload under every fixed strategy (plan.Strategies)
// without the processors in exclude (plan.Planner.Exclude; nil plans on
// every processor), predicts each, and returns the predicted-fastest plan
// together with all estimates (sorted fastest first).
func Select(w *plan.Workload, machine plan.Machine, m simadr.Machine, c simadr.Costs,
	exclude map[int32]bool) (*plan.Plan, []Estimate, error) {
	planner, err := plan.NewPlanner(machine)
	if err != nil {
		return nil, nil, err
	}
	planner.Exclude = exclude
	plans := make(map[plan.Strategy]*plan.Plan, len(plan.Strategies))
	var ests []Estimate
	for _, s := range plan.Strategies {
		p, err := planner.Plan(s, w)
		if err != nil {
			return nil, nil, fmt.Errorf("costmodel: plan %v: %w", s, err)
		}
		e, err := Predict(p, w, m, c)
		if err != nil {
			return nil, nil, err
		}
		plans[s] = p
		ests = append(ests, e)
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i].ExecSec < ests[j].ExecSec })
	return plans[ests[0].Strategy], ests, nil
}
