package plan

import (
	"fmt"

	"adr/internal/chunk"
)

// NoHolderError reports that planning without the dead nodes is impossible:
// a selected chunk's only copies all live on excluded nodes. It fails the
// query non-retryably: no resubmission can read the chunk.
type NoHolderError struct {
	Dataset string
	Chunk   chunk.ID
	Node    int32 // the excluded node holding the (last) copy
}

func (e *NoHolderError) Error() string {
	return fmt.Sprintf("plan: chunk %s/%d has no surviving holder (node %d excluded)",
		e.Dataset, e.Chunk, e.Node)
}

// Degrade rewrites a workload's chunk placement so that no chunk meta
// references an excluded processor, using the replica holder lists recorded
// at load time (chained declustering; see decluster.Replicate):
//
//   - An input chunk owned by an excluded node is remapped to its first
//     surviving holder disk. If every holder's node is excluded, Degrade
//     fails with *NoHolderError — the query cannot be answered degraded.
//   - An output chunk owned by an excluded node is remapped the same way
//     when it has surviving holders; an output with no recorded replicas
//     (the common case: accumulators materialized fresh by the query) is
//     re-homed to the next live processor around the ring, keeping its
//     intra-node disk offset.
//
// The input workload is not modified; the returned workload shares Targets
// and AccBytes with it. disksPerNode maps global disks to nodes
// (node = disk / disksPerNode).
func Degrade(m Machine, w *Workload, excluded map[int32]bool, disksPerNode int) (*Workload, error) {
	if disksPerNode < 1 {
		disksPerNode = 1
	}
	live := 0
	for q := 0; q < m.Procs; q++ {
		if !excluded[int32(q)] {
			live++
		}
	}
	if live == 0 {
		return nil, fmt.Errorf("plan: all %d processors excluded", m.Procs)
	}
	out := &Workload{
		Inputs:   make([]chunk.Meta, len(w.Inputs)),
		Outputs:  make([]chunk.Meta, len(w.Outputs)),
		Targets:  w.Targets,
		AccBytes: w.AccBytes,
	}
	copy(out.Inputs, w.Inputs)
	copy(out.Outputs, w.Outputs)
	remap := func(c *chunk.Meta, isInput bool) error {
		if !excluded[c.Node] {
			return nil
		}
		for _, h := range c.Holders {
			n := h / int32(disksPerNode)
			if !excluded[n] {
				c.Disk, c.Node = h, n
				return nil
			}
		}
		if isInput {
			return &NoHolderError{Dataset: c.Dataset, Chunk: c.ID, Node: c.Node}
		}
		// Fresh output accumulator: any live home works; rotate to the next
		// live processor so re-homed outputs spread instead of piling up.
		for step := 1; step < m.Procs; step++ {
			n := (c.Node + int32(step)) % int32(m.Procs)
			if !excluded[n] {
				c.Node = n
				c.Disk = n*int32(disksPerNode) + c.Disk%int32(disksPerNode)
				return nil
			}
		}
		return fmt.Errorf("plan: no live processor for output chunk %s/%d", c.Dataset, c.ID)
	}
	for i := range out.Inputs {
		if err := remap(&out.Inputs[i], true); err != nil {
			return nil, err
		}
	}
	for o := range out.Outputs {
		if err := remap(&out.Outputs[o], false); err != nil {
			return nil, err
		}
	}
	return out, nil
}
