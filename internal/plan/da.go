package plan

// planDA implements the distributed accumulator strategy (paper §3.3,
// Fig 6). Accumulator chunks are never replicated: each tile's output chunks
// are partitioned into disjoint working sets — the local output chunks of
// each processor — and all aggregation for an output chunk runs on its
// owner. Remote input chunks that project to an output chunk are forwarded
// to the owner during the local reduction phase; because a mapping function
// may project an input chunk to multiple output chunks, an input chunk may
// be forwarded to multiple processors.
//
// Tiling follows Fig 6: a per-processor tile counter Tile(p) advanced when
// that processor's accumulator memory fills. Because no ghosts are
// allocated, DA packs more output chunks per tile and therefore produces
// fewer tiles than FRA or SRA, so fewer input chunks are retrieved multiple
// times. The global tile count is the maximum of the per-processor counters
// (Fig 6 line 17).
func (pl *Planner) planDA(w *Workload, order []int32) (*Plan, error) {
	procs := pl.Machine.Procs
	capacity := pl.Machine.AccMemBytes
	sources := w.Sources()

	p := &Plan{
		Strategy: DA,
		Machine:  pl.Machine,
		TileOf:   make([]int32, len(w.Outputs)),
		Home:     make([]int32, len(w.Outputs)),
	}
	tileOf := make([]int, procs) // Tile(p), 0-based; -1 until first chunk
	remaining := make([]int64, procs)
	for q := range tileOf {
		tileOf[q] = -1
	}

	// ensureTile grows the global tile list to include index t.
	ensureTile := func(t int) {
		for len(p.Tiles) <= t {
			p.Tiles = append(p.Tiles, newTile(procs))
		}
	}

	// Per-tile, per-processor dedup of reads and forwards: an input chunk
	// that projects to several output chunks in the same tile is read once
	// and sent to each destination processor at most once.
	readSeen := make(map[[2]int32]bool) // (tile, input) on reader
	fwdSeen := make(map[[3]int32]bool)  // (tile, input, dest)

	for _, c := range order {
		owner := int(w.Outputs[c].Node)
		size := w.AccSize(c)
		if tileOf[owner] < 0 || remaining[owner] < size && remaining[owner] < capacity {
			tileOf[owner]++
			remaining[owner] = capacity
		}
		remaining[owner] -= size
		t := tileOf[owner]
		ensureTile(t)
		tile := &p.Tiles[t]
		tile.Outputs = append(tile.Outputs, c)
		p.TileOf[c] = int32(t)
		p.Home[c] = int32(owner)
		tile.Locals[owner] = append(tile.Locals[owner], c)

		// All local and remote input chunks that map to c are retrieved and
		// processed by the owner for this tile (Fig 6 line 15): the reader
		// is the input chunk's own node, which forwards to the owner when
		// they differ.
		for _, i := range sources[c] {
			reader := w.Inputs[i].Node
			rk := [2]int32{int32(t), i}
			if !readSeen[rk] {
				readSeen[rk] = true
				tile.Reads[reader] = append(tile.Reads[reader], i)
			}
			if int(reader) != owner {
				fk := [3]int32{int32(t), i, int32(owner)}
				if !fwdSeen[fk] {
					fwdSeen[fk] = true
					tile.Forwards[reader] = append(tile.Forwards[reader], Forward{Input: i, Dest: int32(owner)})
				}
			}
		}
	}
	return p, nil
}
