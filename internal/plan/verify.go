package plan

import "fmt"

// Verify checks that a plan is executable and complete for its workload:
//
//  1. every output chunk is assigned to exactly one tile, Locals lists
//     match the Home assignment, and a tile allocates only its own outputs
//     (Share derivation indexes allocations by their place in the tile);
//  2. per-tile, per-processor accumulator memory never exceeds the machine
//     capacity (except for a single chunk that is itself larger than the
//     capacity, which necessarily overflows under any tiling);
//  3. DA and hybrid allocate no ghosts;
//  4. every (input chunk, target output chunk) aggregation is covered
//     exactly once: the input is read by its owning node in the output's
//     tile, the accumulator is allocated where the aggregation runs, and
//     replicated strategies aggregate at the reader while distributed
//     strategies forward to the home.
//
// The execution engines call Verify before running a plan; the property
// tests drive it with randomized workloads.
func Verify(p *Plan, w *Workload) error {
	procs := p.Machine.Procs
	if len(p.TileOf) != len(w.Outputs) || len(p.Home) != len(w.Outputs) {
		return fmt.Errorf("plan: TileOf/Home length mismatch with %d outputs", len(w.Outputs))
	}

	// 1. Tile partition and Locals/Home consistency.
	seen := make([]bool, len(w.Outputs))
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		if len(t.Locals) != procs || len(t.Ghosts) != procs || len(t.Reads) != procs || len(t.Forwards) != procs {
			return fmt.Errorf("plan: tile %d not sized for %d processors", ti, procs)
		}
		for _, c := range t.Outputs {
			if int(c) >= len(w.Outputs) || c < 0 {
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
		inLocals := make(map[int32]int32)
		for q := 0; q < procs; q++ {
			for _, list := range [2][]int32{t.Locals[q], t.Ghosts[q]} {
				for _, c := range list {
					if c < 0 || int(c) >= len(w.Outputs) || p.TileOf[c] != int32(ti) {
						return fmt.Errorf("plan: tile %d processor %d allocates output %d, not of this tile", ti, q, c)
					}
				}
			}
			for _, c := range t.Locals[q] {
				if prev, dup := inLocals[c]; dup {
					return fmt.Errorf("plan: output %d local on both %d and %d in tile %d", c, prev, q, ti)
				}
				inLocals[c] = int32(q)
				if p.Home[c] != int32(q) {
					return fmt.Errorf("plan: output %d local on %d but homed on %d", c, q, p.Home[c])
				}
			}
		}
		for _, c := range t.Outputs {
			if _, ok := inLocals[c]; !ok {
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
	var maxChunk int64
	for o := range w.Outputs {
		if s := w.AccSize(int32(o)); s > maxChunk {
			maxChunk = s
		}
	}
	limit := p.Machine.AccMemBytes
	if maxChunk > limit {
		limit = maxChunk
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

	// 3. DA and hybrid allocate no ghosts.
	if p.Strategy == DA || p.Strategy == Hybrid {
		for ti := range p.Tiles {
			for q := 0; q < procs; q++ {
				if len(p.Tiles[ti].Ghosts[q]) > 0 {
					return fmt.Errorf("plan: %v tile %d processor %d has ghosts", p.Strategy, ti, q)
				}
			}
		}
	}

	// 4. Coverage. Build per-tile lookup sets once.
	type tileSets struct {
		alloc map[[2]int32]bool // (proc, output) allocated (local or ghost)
		reads map[[2]int32]bool // (proc, input) read
		fwds  map[[3]int32]bool // (proc, input, dest)
	}
	sets := make([]tileSets, len(p.Tiles))
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		s := tileSets{
			alloc: make(map[[2]int32]bool),
			reads: make(map[[2]int32]bool),
			fwds:  make(map[[3]int32]bool),
		}
		for q := 0; q < procs; q++ {
			for _, c := range t.Locals[q] {
				s.alloc[[2]int32{int32(q), c}] = true
			}
			for _, c := range t.Ghosts[q] {
				s.alloc[[2]int32{int32(q), c}] = true
			}
			for _, i := range t.Reads[q] {
				if i < 0 || int(i) >= len(w.Inputs) || s.reads[[2]int32{int32(q), i}] {
					return fmt.Errorf("plan: tile %d processor %d reads input %d twice, or out of range", ti, q, i)
				}
				s.reads[[2]int32{int32(q), i}] = true
			}
			for _, f := range t.Forwards[q] {
				// (Share derivation files each forward under its read.)
				if !s.reads[[2]int32{int32(q), f.Input}] || f.Dest < 0 || int(f.Dest) >= procs {
					return fmt.Errorf("plan: tile %d processor %d forwards input %d to %d without reading it, or out of range", ti, q, f.Input, f.Dest)
				}
				s.fwds[[3]int32{int32(q), f.Input, f.Dest}] = true
			}
		}
		sets[ti] = s
	}
	replicated := p.Strategy == FRA || p.Strategy == SRA
	for i, ts := range w.Targets {
		reader := w.Inputs[i].Node
		for _, o := range ts {
			ti := p.TileOf[o]
			s := &sets[ti]
			if !s.reads[[2]int32{reader, int32(i)}] {
				return fmt.Errorf("plan: input %d not read by node %d in tile %d for output %d", i, reader, ti, o)
			}
			home := p.Home[o]
			if replicated {
				// Aggregation runs at the reader into its replica.
				if !s.alloc[[2]int32{reader, o}] {
					return fmt.Errorf("plan: %v: no accumulator for output %d on reader %d in tile %d", p.Strategy, o, reader, ti)
				}
			} else if reader != home {
				if !s.fwds[[3]int32{reader, int32(i), home}] {
					return fmt.Errorf("plan: %v: input %d not forwarded %d->%d in tile %d for output %d", p.Strategy, i, reader, home, ti, o)
				}
			}
		}
	}
	return nil
}
