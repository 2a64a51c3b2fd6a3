package plan

// planSRA implements the sparsely replicated accumulator strategy (paper
// §3.2, Fig 5). FRA replicates each accumulator chunk on every processor
// even if no local input chunk will ever be aggregated into some of the
// copies, wasting memory and adding needless initialization and global
// combine work. SRA allocates a ghost chunk only on processors owning at
// least one input chunk that projects to the corresponding accumulator
// chunk.
//
// Tiling follows Fig 5: per-processor memory counters; when adding the next
// output chunk would overflow any processor that must allocate it, a new
// tile is opened (all processors advance to the new tile together) and every
// counter resets. One deviation from the figure as printed: the owning
// processor always allocates the accumulator chunk (it must, to combine and
// emit the final output), so its memory is accounted even when it has no
// projecting input chunk — Fig 5 lines 7–15 only charge the processors in
// So. Charging the owner as well keeps the per-tile memory invariant exact.
func (pl *Planner) planSRA(w *Workload, order []int32) (*Plan, error) {
	procs := pl.Machine.Procs
	capacity := pl.Machine.AccMemBytes
	sources := w.Sources()

	p := &Plan{
		Strategy: SRA,
		Machine:  pl.Machine,
		TileOf:   make([]int32, len(w.Outputs)),
		Home:     make([]int32, len(w.Outputs)),
	}
	remaining := make([]int64, procs)
	cur := -1
	var readSeen []map[int32]bool

	openTile := func() {
		p.Tiles = append(p.Tiles, newTile(procs))
		cur = len(p.Tiles) - 1
		readSeen = make([]map[int32]bool, procs)
		for i := range readSeen {
			readSeen[i] = make(map[int32]bool)
		}
		for i := range remaining {
			remaining[i] = capacity
		}
	}

	// allocSet returns the processors that must allocate the accumulator
	// chunk for output c: the owner plus every processor with at least one
	// projecting input chunk (Fig 5 step 5).
	allocSet := func(c int32) []int32 {
		seen := make(map[int32]bool)
		owner := w.Outputs[c].Node
		set := []int32{owner}
		seen[owner] = true
		for _, i := range sources[c] {
			q := w.Inputs[i].Node
			if !seen[q] {
				seen[q] = true
				set = append(set, q)
			}
		}
		return set
	}

	for _, c := range order {
		size := w.AccSize(c)
		set := allocSet(c)
		if cur < 0 {
			openTile()
		} else {
			full := false
			for _, q := range set {
				if remaining[q] < size && remaining[q] < capacity {
					full = true
					break
				}
			}
			if full {
				openTile()
			}
		}
		for _, q := range set {
			remaining[q] -= size
		}
		t := &p.Tiles[cur]
		t.Outputs = append(t.Outputs, c)
		p.TileOf[c] = int32(cur)

		owner := w.Outputs[c].Node
		p.Home[c] = owner
		t.Locals[owner] = append(t.Locals[owner], c)
		for _, q := range set {
			if q != owner {
				t.Ghosts[q] = append(t.Ghosts[q], c)
			}
		}
		for _, i := range sources[c] {
			q := w.Inputs[i].Node
			t.Reads[q] = appendUniqueRead(t.Reads[q], readSeen[q], i)
		}
	}
	return p, nil
}
