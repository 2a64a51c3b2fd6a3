package plan

// planFRA implements the fully replicated accumulator strategy (paper §3.1,
// Fig 4). Each processor carries out the processing associated with its
// local input chunks; every accumulator chunk of the current tile is
// replicated on every processor, so no input chunk ever crosses the network.
// Partial results in the ghost copies are combined into the owner during the
// global combine phase.
//
// Tiling follows Fig 4 exactly: a single tile counter, capacity equal to the
// minimum accumulator memory over all processors (the machine is uniform, so
// that is Machine.AccMemBytes), and output chunks consumed in Hilbert order.
// A chunk that does not fit opens the next tile; a single chunk larger than
// the capacity still receives a tile of its own (the paper assumes chunks
// are sized well below node memory).
func (pl *Planner) planFRA(w *Workload, order []int32) (*Plan, error) {
	procs := pl.Machine.Procs
	capacity := pl.Machine.AccMemBytes
	sources := w.Sources()

	p := &Plan{
		Strategy: FRA,
		Machine:  pl.Machine,
		TileOf:   make([]int32, len(w.Outputs)),
		Home:     make([]int32, len(w.Outputs)),
	}
	var used int64
	cur := -1 // current tile index; forces the first chunk to open tile 0
	var readSeen []map[int32]bool

	openTile := func() {
		p.Tiles = append(p.Tiles, newTile(procs))
		cur = len(p.Tiles) - 1
		readSeen = make([]map[int32]bool, procs)
		for i := range readSeen {
			readSeen[i] = make(map[int32]bool)
		}
		used = 0
	}

	for _, c := range order {
		size := w.AccSize(c)
		if cur < 0 || used+size > capacity && used > 0 {
			openTile()
		}
		used += size
		t := &p.Tiles[cur]
		t.Outputs = append(t.Outputs, c)
		p.TileOf[c] = int32(cur)

		owner := w.Outputs[c].Node
		p.Home[c] = owner
		t.Locals[owner] = append(t.Locals[owner], c)
		for q := 0; q < procs; q++ {
			if int32(q) != owner && !pl.excluded(int32(q)) {
				t.Ghosts[q] = append(t.Ghosts[q], c)
			}
		}
		// Every processor retrieves its own local input chunks that map to
		// chunk c (§3.1: "each processor generates partial results using its
		// local input chunks"). An input chunk mapping to several outputs in
		// the same tile is retrieved once.
		for _, i := range sources[c] {
			q := w.Inputs[i].Node
			t.Reads[q] = appendUniqueRead(t.Reads[q], readSeen[q], i)
		}
	}
	if cur < 0 && len(w.Outputs) == 0 {
		// A query with no output chunks still yields an empty, valid plan.
		return p, nil
	}
	return p, nil
}
