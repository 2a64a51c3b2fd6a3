package plan

// strategy is one row of the strategy table — the whole of what tells one
// tiling + workload partitioning strategy from another. Everything else a
// plan contains follows from the two rules by the one loop in build.
type strategy struct {
	// name is the paper's abbreviation: what String prints and, in any
	// case, what ParseStrategy accepts.
	name string
	// home makes the rule choosing the processor that holds output chunk
	// c's accumulator for good: ghosts are combined into it and Output
	// handling runs there. The rule is asked once per chunk, in tiling
	// order. A row without a home rule (AUTO) cannot be planned.
	home func(pl *Planner, w *Workload, sources [][]int32) func(c int32) int32
	// ghosts proposes the processors that allocate a replica of c beside
	// its home; build keeps each proposed processor once and never the
	// home. A row without a ghost rule replicates nothing.
	ghosts func(pl *Planner, w *Workload, sources []int32, scratch []int32) []int32
}

// strategies declares every strategy once; Strategy.String, ParseStrategy,
// Strategies and Planner.Plan read it and nothing else names a strategy.
//
//	FRA     §3.1, Fig 4   home = owner            ghost on every other live processor
//	SRA     §3.2, Fig 5   home = owner            ghost where a local input chunk projects to c (Fig 5's So)
//	DA      §3.3, Fig 6   home = owner            no ghosts
//	HYBRID  §6            home = input affinity   no ghosts
var strategies = [...]strategy{
	FRA:    {name: "FRA", home: ownerHome, ghosts: everyLive},
	SRA:    {name: "SRA", home: ownerHome, ghosts: projecting},
	DA:     {name: "DA", home: ownerHome},
	Hybrid: {name: "HYBRID", home: affinityHome},
	Auto:   {name: "AUTO"},
}

// ownerHome homes every accumulator on the processor storing its output
// chunk, so Output handling writes locally.
func ownerHome(_ *Planner, w *Workload, _ [][]int32) func(int32) int32 {
	return func(c int32) int32 { return w.Outputs[c].Node }
}

// everyLive is FRA's ghost rule: every processor not excluded as dead, so no
// input chunk ever crosses the network.
func everyLive(pl *Planner, _ *Workload, _ []int32, scratch []int32) []int32 {
	for q := int32(0); int(q) < pl.Machine.Procs; q++ {
		if !pl.excluded(q) {
			scratch = append(scratch, q)
		}
	}
	return scratch
}

// projecting is SRA's ghost rule: the processors with at least one local
// input chunk projecting to the output chunk (sources lists those chunks).
func projecting(_ *Planner, w *Workload, sources []int32, scratch []int32) []int32 {
	for _, i := range sources {
		scratch = append(scratch, w.Inputs[i].Node)
	}
	return scratch
}

// affinityHome is the hybrid's home rule, the graph-partitioning view the
// paper sketches as future work (§6: "input and output chunks representing
// the graph vertices, and the mapping between input and output chunks ...
// the graph edges"). FRA and SRA aggregate where the input chunks live, DA
// where the output chunks live; the hybrid homes each accumulator by edge
// affinity, on the processor whose local input chunks contribute the most
// bytes to it, penalized by the aggregation load already homed there. The
// dominant contributor then forwards nothing, and a chunk homed away from its
// owner is shipped there finished (one accumulator-sized message instead of
// many input-sized ones).
func affinityHome(pl *Planner, w *Workload, sources [][]int32) func(int32) int32 {
	procs := pl.Machine.Procs
	load := make([]int64, procs) // aggregation bytes homed per processor
	affinity := make([]int64, procs)
	// Mean aggregation bytes per processor, for the load penalty scale.
	var totalBytes int64
	for i, ts := range w.Targets {
		totalBytes += w.Inputs[i].Bytes * int64(len(ts))
	}
	meanLoad := max(totalBytes/int64(procs), 1)

	return func(c int32) int32 {
		clear(affinity)
		for _, i := range sources[c] {
			affinity[w.Inputs[i].Node] += w.Inputs[i].Bytes
		}
		// The owner gets a bonus: homing there saves shipping the finished
		// chunk.
		owner := w.Outputs[c].Node
		affinity[owner] += w.AccSize(c)
		// Home = argmax over live processors of (local contribution − load
		// beyond the mean), ties to the lower index.
		//
		// Known bias, kept so plans stay what they were (ROADMAP item 8,
		// HYBRID): bestScore starts at 0, not at the owner's score, so a
		// processor numbered below the owner is held to a phantom 0 until
		// the scan reaches the owner. When the owner is overloaded (score
		// < 0), a lower-numbered processor with a better negative score is
		// never considered, while the same processor numbered above the
		// owner would win.
		best := int(owner)
		var bestScore int64
		for q := 0; q < procs; q++ {
			if pl.excluded(int32(q)) {
				continue
			}
			score := affinity[q] - max(load[q]-meanLoad, 0)
			if q == best {
				bestScore = score
			}
			if score > bestScore || (score == bestScore && q < best) {
				best, bestScore = q, score
			}
		}
		for _, i := range sources[c] {
			load[best] += w.Inputs[i].Bytes
		}
		return int32(best)
	}
}

// build is the tiling and workload partitioning step (§3) for every
// strategy. Output chunks are taken in Hilbert order; for each chunk c the
// strategy's rules name its holders — the home and the ghosts — and the rest
// follows by rule:
//
//   - Tiling. Every processor q has a tile counter Tile(q) and the
//     accumulator memory left in that tile. c goes into its home's current
//     tile if it fits on every holder; otherwise a new tile opens — for the
//     home alone when the strategy replicates nothing, so every home fills
//     its own tiles and the plan has max Tile(q) of them (Fig 6, line 17);
//     for every processor in lockstep when it does, because a replica must
//     sit in the same tile as its home (Figs 4–5, where the counters
//     therefore move as one). A chunk larger than the whole memory still
//     gets a tile, alone on each holder.
//   - Memory. Every holder is charged c's accumulator, the home included
//     even when it has no projecting input chunk (Fig 5 as printed charges
//     only So; the home must allocate to combine and emit the output).
//   - Reads. Every input chunk projecting to c is read by the node storing
//     it, once per tile however many of the tile's chunks it projects to.
//   - Aggregation. The reader aggregates into its own copy if it holds c;
//     otherwise it forwards the chunk to c's home, once per (tile, home).
func (pl *Planner) build(s Strategy, w *Workload) *Plan {
	procs, capacity := pl.Machine.Procs, pl.Machine.AccMemBytes
	rules := &strategies[s]
	sources := w.Sources()
	home := rules.home(pl, w, sources)
	p := &Plan{
		Strategy: s,
		Machine:  pl.Machine,
		TileOf:   make([]int32, len(w.Outputs)),
		Home:     make([]int32, len(w.Outputs)),
	}

	lockstep := rules.ghosts != nil   // replicas keep every processor in the same tile
	tileOf := make([]int32, procs)    // Tile(q); -1 until q's first tile opens
	remaining := make([]int64, procs) // accumulator memory left on q in Tile(q)
	for q := range tileOf {
		tileOf[q] = -1
	}
	holds := make([]bool, procs)                       // q allocates the current chunk
	holders := make([]int32, 0, procs)                 // the same as a list, home first
	candidates := make([]int32, 0, procs)              // ghost rule scratch
	read := make(map[[2]int32]struct{}, len(w.Inputs)) // (tile, input) already in a read list
	forward := make(map[[3]int32]struct{})             // (tile, input, dest) already in a forward list

	for _, c := range tilingOrder(w.Outputs) {
		h := home(c)
		holders, holds[h] = append(holders[:0], h), true
		if lockstep {
			candidates = rules.ghosts(pl, w, sources[c], candidates[:0])
			for _, q := range candidates {
				if !holds[q] {
					holders, holds[q] = append(holders, q), true
				}
			}
		}

		size := w.AccSize(c)
		fits := true
		for _, q := range holders {
			if tileOf[q] < 0 || remaining[q] < size && remaining[q] < capacity {
				fits = false
			}
		}
		if !fits {
			for q := range tileOf {
				if lockstep || int32(q) == h {
					tileOf[q]++
					remaining[q] = capacity
				}
			}
		}
		for _, q := range holders {
			remaining[q] -= size
		}

		t := tileOf[h]
		for len(p.Tiles) <= int(t) {
			p.Tiles = append(p.Tiles, newTile(procs))
		}
		tile := &p.Tiles[t]
		tile.Outputs = append(tile.Outputs, c)
		p.TileOf[c], p.Home[c] = t, h
		tile.Locals[h] = append(tile.Locals[h], c)
		for _, q := range holders[1:] {
			tile.Ghosts[q] = append(tile.Ghosts[q], c)
		}

		for _, i := range sources[c] {
			reader := w.Inputs[i].Node
			if _, seen := read[[2]int32{t, i}]; !seen {
				read[[2]int32{t, i}] = struct{}{}
				tile.Reads[reader] = append(tile.Reads[reader], i)
			}
			if holds[reader] {
				continue
			}
			if _, seen := forward[[3]int32{t, i, h}]; !seen {
				forward[[3]int32{t, i, h}] = struct{}{}
				tile.Forwards[reader] = append(tile.Forwards[reader], Forward{Input: i, Dest: h})
			}
		}
		for _, q := range holders {
			holds[q] = false
		}
	}
	return p
}
