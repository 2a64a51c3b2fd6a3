package simadr

import (
	"fmt"

	"adr/internal/plan"
	"adr/internal/sim"
)

// delivery kinds for cross-node messages.
const (
	dInput = iota
	dGhost
	dOutputInit
	dFinal
)

type delivery struct {
	kind  int
	seq   int32
	pairs int32 // dInput: aggregations the chunk triggers at the receiver
}

type pendKey struct {
	node int
	tile int
}

type simulation struct {
	eng  *sim.Engine
	p    *plan.Plan
	w    *plan.Workload
	opts Options

	cpu    []*sim.Resource
	nicOut []*sim.Resource
	nicIn  []*sim.Resource
	disks  [][]*sim.Resource

	prep    [][]plan.Share // [node][tile], derived from the plan once
	stats   []NodeStats
	pending map[pendKey][]delivery
	started [][]bool // [node][tile]
	tileCtr [][]tileCounters
}

// tileCounters chain one node's phases of one tile; cI exists only under
// InitFromOutput.
type tileCounters struct {
	cI, cLR, cGC, cOH *sim.Counter
}

// Simulate executes the plan on the modeled machine and returns timing and
// per-node accounting.
func Simulate(p *plan.Plan, w *plan.Workload, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Machine.Procs != p.Machine.Procs {
		return nil, fmt.Errorf("simadr: machine has %d procs but plan was built for %d",
			opts.Machine.Procs, p.Machine.Procs)
	}
	if err := plan.Verify(p, w); err != nil {
		return nil, err
	}
	s := &simulation{
		eng:     sim.New(),
		p:       p,
		w:       w,
		opts:    opts,
		pending: make(map[pendKey][]delivery),
	}
	s.buildResources()
	s.prep = plan.Schedule(p, w)

	procs := opts.Machine.Procs
	s.stats = make([]NodeStats, procs)
	s.started = make([][]bool, procs)
	s.tileCtr = make([][]tileCounters, procs)
	for q := 0; q < procs; q++ {
		s.started[q] = make([]bool, len(p.Tiles))
		s.tileCtr[q] = make([]tileCounters, len(p.Tiles))
	}
	for q := 0; q < procs; q++ {
		if len(p.Tiles) > 0 {
			s.startTile(q, 0)
		}
	}
	exec := s.eng.Run()
	res := &Result{ExecSec: exec, Nodes: s.stats, Events: s.eng.Events()}
	return res, nil
}

func (s *simulation) buildResources() {
	m := s.opts.Machine
	for q := 0; q < m.Procs; q++ {
		if s.opts.Overlap {
			s.cpu = append(s.cpu, sim.NewResource(s.eng, fmt.Sprintf("cpu%d", q)))
			s.nicOut = append(s.nicOut, sim.NewResource(s.eng, fmt.Sprintf("out%d", q)))
			s.nicIn = append(s.nicIn, sim.NewResource(s.eng, fmt.Sprintf("in%d", q)))
			var dd []*sim.Resource
			for d := 0; d < m.DisksPerNode; d++ {
				dd = append(dd, sim.NewResource(s.eng, fmt.Sprintf("disk%d.%d", q, d)))
			}
			s.disks = append(s.disks, dd)
		} else {
			// Ablation: one serial resource per node — no overlap between
			// I/O, communication and processing.
			r := sim.NewResource(s.eng, fmt.Sprintf("node%d", q))
			s.cpu = append(s.cpu, r)
			s.nicOut = append(s.nicOut, r)
			s.nicIn = append(s.nicIn, r)
			dd := make([]*sim.Resource, m.DisksPerNode)
			for d := range dd {
				dd[d] = r
			}
			s.disks = append(s.disks, dd)
		}
	}
}

// diskOf maps a chunk's global disk id to the owning node's local disk.
func (s *simulation) diskOf(globalDisk int32) *sim.Resource {
	node := int(globalDisk) / s.opts.Machine.DisksPerNode
	local := int(globalDisk) % s.opts.Machine.DisksPerNode
	return s.disks[node][local]
}

// compute schedules CPU work attributed to a phase.
func (s *simulation) compute(q, phase int, d float64, done func()) {
	s.stats[q].PhaseComputeSec[phase] += d
	s.cpu[q].Acquire(d, done)
}

// transfer models a message from src to dst: the sender's outbound link is
// occupied for the payload, the switch adds latency, the receiver's inbound
// link is occupied for the payload, then the delivery callback runs. Each
// side also burns messaging CPU (NetCPUSecPerByte) attributed to the phase
// the transfer serves; the sender's share does not gate the transfer (the
// NIC DMA proceeds) but does occupy the CPU, delaying other compute —
// which is how communication-heavy strategies pay under full overlap.
func (s *simulation) transfer(src, dst int, bytes int64, phase int, deliver func()) {
	m := s.opts.Machine
	d := float64(bytes) / m.NetBWBytes
	s.stats[src].BytesSent += bytes
	s.stats[src].MsgsSent++
	s.stats[src].NetSec += d
	if m.NetCPUSecPerByte > 0 {
		s.compute(src, phase, float64(bytes)*m.NetCPUSecPerByte, nil)
	}
	s.nicOut[src].Acquire(d, func() {
		s.eng.After(m.NetLatencySec, func() {
			s.stats[dst].BytesRecv += bytes
			s.stats[dst].MsgsRecv++
			s.stats[dst].NetSec += d
			s.nicIn[dst].Acquire(d, deliver)
		})
	})
}

// recvCPU returns the receive-side messaging CPU charge for a payload.
func (s *simulation) recvCPU(bytes int64) float64 {
	return float64(bytes) * s.opts.Machine.NetCPUSecPerByte
}

// readDisk models one chunk retrieval from a node's local disk.
func (s *simulation) readDisk(q int, globalDisk int32, bytes int64, done func()) {
	m := s.opts.Machine
	d := m.DiskSeekSec + float64(bytes)/m.DiskBWBytes
	s.stats[q].BytesRead += bytes
	s.stats[q].ChunksRead++
	s.stats[q].DiskSec += d
	s.diskOf(globalDisk).Acquire(d, done)
}

// writeDisk models one chunk write.
func (s *simulation) writeDisk(q int, globalDisk int32, bytes int64, done func()) {
	m := s.opts.Machine
	d := m.DiskSeekSec + float64(bytes)/m.DiskBWBytes
	s.stats[q].BytesWritten += bytes
	s.stats[q].DiskSec += d
	s.diskOf(globalDisk).Acquire(d, done)
}

// startTile enters tile t on node q: phase I begins, reads are issued (they
// overlap initialization on the disk), and buffered early arrivals drain.
func (s *simulation) startTile(q, t int) {
	s.started[q][t] = true
	pr := &s.prep[q][t]
	c := &s.tileCtr[q][t]

	// Counters chain the §2.4 phases. Each holds one extra token released
	// by the previous phase's completion.
	c.cOH = sim.NewCounter(1+len(pr.Locals)+pr.ExpectFinals, func() { s.finishTile(q, t) })
	c.cGC = sim.NewCounter(1+pr.ExpectGhosts, func() { s.enterOH(q, t) })
	c.cLR = sim.NewCounter(1+len(pr.Reads)+pr.ExpectInputs, func() { s.enterGC(q, t) })

	// Phase I.
	if s.opts.InitFromOutput {
		// Every allocation initializes once its existing chunk is at hand:
		// locally owned ones after the owner's read, remotely owned ones on
		// message arrival (dOutputInit deliveries).
		c.cI = sim.NewCounter(pr.Allocs(), func() { c.cLR.Done() })
		c.cI.Arm()
		// Owner duties: read existing outputs, forward to replica holders.
		for k, o := range pr.Owned {
			o, holders := o, pr.InitHolders[k]
			bytes := s.w.Outputs[o].Bytes
			s.readDisk(q, s.w.Outputs[o].Disk, bytes, func() {
				held := false
				for _, dest := range holders {
					dest := int(dest)
					if dest == q {
						held = true
						continue
					}
					s.transfer(q, dest, bytes, phaseI, func() {
						s.deliver(dest, t, delivery{kind: dOutputInit, seq: o})
					})
				}
				if held {
					s.compute(q, phaseI, s.opts.Costs.Init, c.cI.Done)
				}
			})
		}
	} else {
		// Initialize all allocations straight away.
		s.compute(q, phaseI, float64(pr.Allocs())*s.opts.Costs.Init, func() {
			c.cLR.Done()
		})
	}

	// Local reads: issued immediately, overlapping initialization.
	for k, i := range pr.Reads {
		i := i
		pairs := pr.ReadPairs[k]
		im := s.w.Inputs[i]
		s.readDisk(q, im.Disk, im.Bytes, func() {
			for _, d := range pr.Dests(k) {
				dest, arrival := int(d.To), delivery{kind: dInput, seq: i, pairs: d.Pairs}
				s.transfer(q, dest, im.Bytes, phaseLR, func() {
					s.deliver(dest, t, arrival)
				})
			}
			s.stats[q].AggPairs += int64(pairs)
			s.compute(q, phaseLR, float64(pairs)*s.opts.Costs.LR, func() {
				c.cLR.Done()
			})
		})
	}

	// Drain early arrivals.
	key := pendKey{node: q, tile: t}
	if buf := s.pending[key]; len(buf) > 0 {
		delete(s.pending, key)
		for _, d := range buf {
			s.process(q, t, d)
		}
	}
}

// deliver routes an arrival: processed now if the tile has started here,
// buffered otherwise.
func (s *simulation) deliver(q, t int, d delivery) {
	if s.started[q][t] {
		s.process(q, t, d)
		return
	}
	key := pendKey{node: q, tile: t}
	s.pending[key] = append(s.pending[key], d)
}

// process handles one arrival on node q in tile t.
func (s *simulation) process(q, t int, d delivery) {
	c := &s.tileCtr[q][t]
	switch d.kind {
	case dInput:
		s.stats[q].AggPairs += int64(d.pairs)
		work := float64(d.pairs)*s.opts.Costs.LR + s.recvCPU(s.w.Inputs[d.seq].Bytes)
		s.compute(q, phaseLR, work, func() {
			c.cLR.Done()
		})
	case dGhost:
		s.stats[q].Combines++
		s.compute(q, phaseGC, s.opts.Costs.GC+s.recvCPU(s.w.AccSize(d.seq)), func() {
			c.cGC.Done()
		})
	case dOutputInit:
		s.compute(q, phaseI, s.opts.Costs.Init+s.recvCPU(s.w.Outputs[d.seq].Bytes), c.cI.Done)
	case dFinal:
		s.compute(q, phaseOH, s.recvCPU(s.w.Outputs[d.seq].Bytes), func() {
			if s.opts.WriteBack {
				s.writeDisk(q, s.w.Outputs[d.seq].Disk, s.w.Outputs[d.seq].Bytes, func() {
					c.cOH.Done()
				})
				return
			}
			c.cOH.Done()
		})
	}
}

// enterGC runs when local reduction completes on node q for tile t: send
// every ghost to its home.
func (s *simulation) enterGC(q, t int) {
	pr := &s.prep[q][t]
	c := &s.tileCtr[q][t]
	for _, o := range pr.Ghosts {
		o := o
		home := int(s.p.Home[o])
		s.transfer(q, home, s.w.AccSize(o), phaseGC, func() {
			s.deliver(home, t, delivery{kind: dGhost, seq: o})
		})
	}
	c.cGC.Done() // the LR token
	c.cGC.Arm()
}

// enterOH runs when the global combine completes: finalize homed outputs.
func (s *simulation) enterOH(q, t int) {
	pr := &s.prep[q][t]
	c := &s.tileCtr[q][t]
	for _, o := range pr.Locals {
		o := o
		om := s.w.Outputs[o]
		s.compute(q, phaseOH, s.opts.Costs.OH, func() {
			if om.Node != int32(q) {
				// Ship the finished chunk to its owner.
				s.transfer(q, int(om.Node), om.Bytes, phaseOH, func() {
					s.deliver(int(om.Node), t, delivery{kind: dFinal, seq: o})
				})
				c.cOH.Done()
				return
			}
			if s.opts.WriteBack {
				s.writeDisk(q, om.Disk, om.Bytes, func() {
					c.cOH.Done()
				})
				return
			}
			c.cOH.Done()
		})
	}
	c.cOH.Done() // the GC token
	c.cOH.Arm()
}

// finishTile records completion and advances node q to the next tile.
func (s *simulation) finishTile(q, t int) {
	if t+1 < len(s.p.Tiles) {
		s.startTile(q, t+1)
		return
	}
	s.stats[q].FinishSec = s.eng.Now()
}
