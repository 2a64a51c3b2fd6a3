package plan

// planHybrid implements the graph-partitioned strategy the paper sketches as
// future work (§6): "the tiling and workload partitioning steps can be
// formulated as a multi-graph partitioning problem, with input and output
// chunks representing the graph vertices, and the mapping between input and
// output chunks ... representing the graph edges."
//
// FRA/SRA put all processing where the *input* chunks live; DA puts it where
// the *output* chunks live. The hybrid picks, per accumulator chunk, a home
// processor by edge affinity: the processor whose local input chunks
// contribute the most bytes to that output chunk, penalized by the
// aggregation load already assigned to it. Input chunks are forwarded to the
// home (as in DA) but the dominant contributor forwards nothing; if the home
// differs from the owner, the finished output chunk is shipped to the owner
// during output handling (one accumulator-sized message instead of many
// input-sized ones).
//
// Tiling mirrors DA: per-home memory counters, no replication.
func (pl *Planner) planHybrid(w *Workload, order []int32) (*Plan, error) {
	procs := pl.Machine.Procs
	capacity := pl.Machine.AccMemBytes
	sources := w.Sources()

	p := &Plan{
		Strategy: Hybrid,
		Machine:  pl.Machine,
		TileOf:   make([]int32, len(w.Outputs)),
		Home:     make([]int32, len(w.Outputs)),
	}
	tileOf := make([]int, procs)
	remaining := make([]int64, procs)
	load := make([]int64, procs) // aggregation bytes assigned per processor
	for q := range tileOf {
		tileOf[q] = -1
	}
	ensureTile := func(t int) {
		for len(p.Tiles) <= t {
			p.Tiles = append(p.Tiles, newTile(procs))
		}
	}
	readSeen := make(map[[2]int32]bool)
	fwdSeen := make(map[[3]int32]bool)

	// Mean aggregation bytes per processor, for the load penalty scale.
	var totalBytes int64
	for i, ts := range w.Targets {
		totalBytes += w.Inputs[i].Bytes * int64(len(ts))
	}
	meanLoad := totalBytes / int64(procs)
	if meanLoad == 0 {
		meanLoad = 1
	}

	affinity := make([]int64, procs)
	for _, c := range order {
		// Home = argmax over processors of (local contribution − load
		// penalty). The owner gets a small bonus: homing at the owner saves
		// shipping the finished chunk.
		for q := range affinity {
			affinity[q] = 0
		}
		for _, i := range sources[c] {
			affinity[w.Inputs[i].Node] += w.Inputs[i].Bytes
		}
		owner := w.Outputs[c].Node
		affinity[owner] += w.AccSize(c)
		best := int(owner)
		var bestScore int64
		for q := 0; q < procs; q++ {
			if pl.excluded(int32(q)) {
				continue
			}
			// Penalize processors already loaded beyond the mean so work
			// spreads even when affinity is concentrated.
			over := load[q] - meanLoad
			if over < 0 {
				over = 0
			}
			score := affinity[q] - over
			if q == best {
				bestScore = score
			}
			if score > bestScore || (score == bestScore && q < best) {
				best, bestScore = q, score
			}
		}
		home := best
		size := w.AccSize(c)
		if tileOf[home] < 0 || remaining[home] < size && remaining[home] < capacity {
			tileOf[home]++
			remaining[home] = capacity
		}
		remaining[home] -= size
		t := tileOf[home]
		ensureTile(t)
		tile := &p.Tiles[t]
		tile.Outputs = append(tile.Outputs, c)
		p.TileOf[c] = int32(t)
		p.Home[c] = int32(home)
		tile.Locals[home] = append(tile.Locals[home], c)

		for _, i := range sources[c] {
			reader := w.Inputs[i].Node
			load[home] += w.Inputs[i].Bytes
			rk := [2]int32{int32(t), i}
			if !readSeen[rk] {
				readSeen[rk] = true
				tile.Reads[reader] = append(tile.Reads[reader], i)
			}
			if int(reader) != home {
				fk := [3]int32{int32(t), i, int32(home)}
				if !fwdSeen[fk] {
					fwdSeen[fk] = true
					tile.Forwards[reader] = append(tile.Forwards[reader], Forward{Input: i, Dest: int32(home)})
				}
			}
		}
	}
	return p, nil
}
