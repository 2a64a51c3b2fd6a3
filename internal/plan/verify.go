package plan

import "fmt"

// Verify checks that a plan is executable and complete for its workload,
// whatever strategy built it:
//
//  1. every output chunk is assigned to exactly one tile, Locals lists
//     match the Home assignment, a tile allocates only its own outputs and
//     no processor allocates one twice (Share derivation indexes allocations
//     by their place in the tile);
//  2. per-tile, per-processor accumulator memory never exceeds the machine
//     capacity (except for a single chunk that is itself larger than the
//     capacity, which necessarily overflows under any tiling);
//  3. a tile's input chunks are read by the node storing them, at most once,
//     and a processor forwards only what it reads, to a valid processor;
//  4. every (input chunk, target output chunk) aggregation is covered
//     exactly once: the input is read in the output's tile, and exactly one
//     processor among the reader and the destinations it forwards the chunk
//     to in that tile holds an accumulator for the output — none would lose
//     the aggregation, two would count it twice.
//
// The execution engines call Verify before running a plan; the property
// tests drive it with randomized workloads.
func Verify(p *Plan, w *Workload) error {
	procs, nOut := p.Machine.Procs, len(w.Outputs)
	if len(p.TileOf) != nOut || len(p.Home) != nOut {
		return fmt.Errorf("plan: TileOf/Home length mismatch with %d outputs", nOut)
	}

	// 1. Tile partition and Locals/Home consistency. holds[q*nOut+o] says
	// processor q allocates output o (in o's one tile).
	seen := make([]bool, nOut)
	local := make([]bool, nOut)
	holds := make([]bool, procs*nOut)
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		if len(t.Locals) != procs || len(t.Ghosts) != procs || len(t.Reads) != procs || len(t.Forwards) != procs {
			return fmt.Errorf("plan: tile %d not sized for %d processors", ti, procs)
		}
		for _, c := range t.Outputs {
			if int(c) >= nOut || c < 0 {
				return fmt.Errorf("plan: tile %d lists output %d out of range", ti, c)
			}
			if seen[c] {
				return fmt.Errorf("plan: output %d in more than one tile", c)
			}
			seen[c] = true
			if p.TileOf[c] != int32(ti) {
				return fmt.Errorf("plan: output %d listed in tile %d but TileOf says %d", c, ti, p.TileOf[c])
			}
		}
		for q := 0; q < procs; q++ {
			for _, list := range [2][]int32{t.Locals[q], t.Ghosts[q]} {
				for _, c := range list {
					if c < 0 || int(c) >= nOut || p.TileOf[c] != int32(ti) {
						return fmt.Errorf("plan: tile %d processor %d allocates output %d, not of this tile", ti, q, c)
					}
					if holds[q*nOut+int(c)] {
						return fmt.Errorf("plan: tile %d processor %d allocates output %d twice", ti, q, c)
					}
					holds[q*nOut+int(c)] = true
				}
			}
			for _, c := range t.Locals[q] {
				if local[c] {
					return fmt.Errorf("plan: output %d local on two processors in tile %d", c, ti)
				}
				local[c] = true
				if p.Home[c] != int32(q) {
					return fmt.Errorf("plan: output %d local on %d but homed on %d", c, q, p.Home[c])
				}
			}
		}
		for _, c := range t.Outputs {
			if !local[c] {
				return fmt.Errorf("plan: output %d in tile %d has no local allocation", c, ti)
			}
		}
	}
	for c := range seen {
		if !seen[c] {
			return fmt.Errorf("plan: output %d not assigned to any tile", c)
		}
	}

	// 2. Memory bound.
	limit := p.Machine.AccMemBytes
	for o := range w.Outputs {
		limit = max(limit, w.AccSize(int32(o)))
	}
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		for q := 0; q < procs; q++ {
			var used int64
			for _, c := range t.Locals[q] {
				used += w.AccSize(c)
			}
			for _, c := range t.Ghosts[q] {
				used += w.AccSize(c)
			}
			if used > limit {
				return fmt.Errorf("plan: tile %d processor %d allocates %d bytes > limit %d", ti, q, used, limit)
			}
		}
	}

	// 3 and 4. Number the (input, target) pairs — pair[i]+k is input i's
	// k-th target — and walk every tile's reads and forwards, noting for each
	// pair of that tile whether it was read and how many holders of the
	// target the chunk reaches.
	pair := make([]int, len(w.Inputs)+1)
	for i, ts := range w.Targets {
		pair[i+1] = pair[i] + len(ts)
	}
	read := make([]bool, pair[len(w.Inputs)])
	reached := make([]uint8, pair[len(w.Inputs)])
	// arrive records input i reaching processor q in tile ti.
	arrive := func(ti int, i, q int32, reader bool) {
		for k, o := range w.Targets[i] {
			if p.TileOf[o] != int32(ti) {
				continue
			}
			if reader {
				read[pair[i]+k] = true
			}
			if holds[int(q)*nOut+int(o)] && reached[pair[i]+k] < 2 {
				reached[pair[i]+k]++
			}
		}
	}
	readIn := make([]int, len(w.Inputs)) // 1 + the last tile input i was read in
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		for q := int32(0); int(q) < procs; q++ {
			for _, i := range t.Reads[q] {
				if i < 0 || int(i) >= len(w.Inputs) || readIn[i] == ti+1 {
					return fmt.Errorf("plan: tile %d processor %d reads input %d twice, or out of range", ti, q, i)
				}
				if w.Inputs[i].Node != q {
					return fmt.Errorf("plan: tile %d processor %d reads input %d, stored on node %d", ti, q, i, w.Inputs[i].Node)
				}
				readIn[i] = ti + 1
				arrive(ti, i, q, true)
			}
		}
		for q := int32(0); int(q) < procs; q++ {
			for _, f := range t.Forwards[q] {
				// (Share derivation files each forward under its read.)
				if f.Input < 0 || int(f.Input) >= len(w.Inputs) || readIn[f.Input] != ti+1 || w.Inputs[f.Input].Node != q || f.Dest < 0 || int(f.Dest) >= procs {
					return fmt.Errorf("plan: tile %d processor %d forwards input %d to %d without reading it, or out of range", ti, q, f.Input, f.Dest)
				}
				arrive(ti, f.Input, f.Dest, false)
			}
		}
	}
	for i, ts := range w.Targets {
		for k, o := range ts {
			switch {
			case !read[pair[i]+k]:
				return fmt.Errorf("plan: input %d not read by node %d in tile %d for output %d", i, w.Inputs[i].Node, p.TileOf[o], o)
			case reached[pair[i]+k] == 0:
				return fmt.Errorf("plan: input %d reaches no accumulator for output %d in tile %d: node %d holds none and forwards it to no holder", i, o, p.TileOf[o], w.Inputs[i].Node)
			case reached[pair[i]+k] > 1:
				return fmt.Errorf("plan: input %d reaches more than one accumulator for output %d in tile %d", i, o, p.TileOf[o])
			}
		}
	}
	return nil
}
