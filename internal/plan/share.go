package plan

// Share is what a plan makes one processor allocate, read, send and wait for
// in one tile. It is the single reading of a Tile every consumer works from:
// the engine executes it, the simulator replays it, the cost model prices it,
// the calibration and ComputeStats count it. The send lists of a tile
// (Forwards, Ghosts, Home) are inverted into receive-side expectations here
// and nowhere else.
type Share struct {
	// Locals, Ghosts and Reads alias the tile's lists for this processor:
	// the accumulators it allocates (homed here / replicas of outputs homed
	// elsewhere) and the input chunks it retrieves, in retrieval order.
	Locals, Ghosts, Reads []int32
	// Forward[k] lists where the chunk Reads[k] is sent after the read (DA
	// and hybrid); nil when the processor forwards nothing in this tile —
	// read it through Dests.
	Forward [][]Dest
	// Owned lists the tile's outputs stored on this processor's disks, in
	// Tile.Outputs order (the simulator's event order follows it), and
	// InitHolders[k] every processor allocating Owned[k] — home first, then
	// the ghost holders ascending. When the query initializes from existing
	// output, the owner reads Owned[k] and sends it to each holder but itself.
	Owned       []int32
	InitHolders [][]int32
	// Expected arrivals, one message each: input chunks forwarded here
	// (local reduction), ghost accumulators to combine into locals (global
	// combine), existing output chunks for allocations owned elsewhere
	// (initialization, only when the query initializes from output), and
	// finished outputs homed away and shipped back to this owner (output
	// handling).
	ExpectInputs, ExpectGhosts, ExpectInits, ExpectFinals int
	// ReadPairs[k] is the number of (input chunk, accumulator chunk)
	// aggregations reading Reads[k] triggers here — the unit the LR compute
	// cost is defined over; Dest.Pairs is the same at a forward's receiver.
	// ShareOf and Schedule both set ReadPairs (a reader decodes only the
	// chunks it aggregates); Dest.Pairs is set by Schedule only.
	ReadPairs []int32
}

// Dest is one destination of a forwarded input chunk: the processor it goes
// to and the aggregations it triggers there.
type Dest struct{ To, Pairs int32 }

// Allocs is the number of accumulator chunks the processor initializes.
func (s *Share) Allocs() int { return len(s.Locals) + len(s.Ghosts) }

// Dests is where the chunk Reads[k] is sent after the read.
func (s *Share) Dests(k int) []Dest {
	if s.Forward == nil {
		return nil
	}
	return s.Forward[k]
}

// ShareOf derives processor q's share of every tile of the plan, with its
// own ReadPairs but without the forwards' Dest.Pairs. It is the per-query
// form: every node of a mesh derives only its own. The plan must have passed
// Verify.
func ShareOf(p *Plan, w *Workload, q int32) []Share {
	if q < 0 || int(q) >= p.Machine.Procs {
		return nil
	}
	return derive(p, w, q)[q]
}

// Schedule derives every processor's shares, indexed [processor][tile], with
// aggregation-pair counts. The plan must have passed Verify or come straight
// from a Planner.
func Schedule(p *Plan, w *Workload) [][]Share {
	return derive(p, w, -1)
}

// derive builds the shares of processor only, or of every processor (with
// the forwards' pair counts too) when only is negative; rows not asked for
// stay nil.
func derive(p *Plan, w *Workload, only int32) [][]Share {
	procs, nOut := p.Machine.Procs, len(w.Outputs)
	out := make([][]Share, procs)
	for q := range out {
		if only < 0 || int32(q) == only {
			out[q] = make([]Share, len(p.Tiles))
		}
	}
	// ownedAt[o] is o's index in its owner's Owned list, and held[q][o]
	// says q allocates o (rows only for the processors asked for); an output
	// belongs to exactly one tile, so neither is reset between tiles.
	ownedAt := make([]int32, nOut)
	var at []int32 // per-input scratch, made on the first forward
	held := make([][]bool, procs)
	for q := range out {
		if out[q] != nil {
			held[q] = make([]bool, nOut)
		}
	}
	// pairs counts the aggregations input i triggers on q in tile t: one per
	// target of that tile that q allocates.
	pairs := func(t int, q, i int32) (n int32) {
		for _, o := range w.Targets[i] {
			if p.TileOf[o] == int32(t) && held[q][o] {
				n++
			}
		}
		return n
	}
	row := make([]*Share, procs) // this tile's shares; nil where not asked for
	for t := range p.Tiles {
		tile := &p.Tiles[t]
		for q := range out {
			if out[q] != nil {
				row[q] = &out[q][t]
				row[q].Locals, row[q].Ghosts, row[q].Reads = tile.Locals[q], tile.Ghosts[q], tile.Reads[q]
			}
		}
		for _, o := range tile.Outputs {
			owner, home := w.Outputs[o].Node, p.Home[o]
			if sh := row[owner]; sh != nil {
				ownedAt[o] = int32(len(sh.Owned))
				sh.Owned = append(sh.Owned, o)
				sh.InitHolders = append(sh.InitHolders, []int32{home})
				if home != owner {
					sh.ExpectFinals++
				}
			}
			if sh := row[home]; sh != nil && home != owner {
				sh.ExpectInits++
			}
		}
		for q, ghosts := range tile.Ghosts {
			for _, o := range ghosts {
				owner := w.Outputs[o].Node
				if sh := row[p.Home[o]]; sh != nil {
					sh.ExpectGhosts++
				}
				if sh := row[owner]; sh != nil {
					sh.InitHolders[ownedAt[o]] = append(sh.InitHolders[ownedAt[o]], int32(q))
				}
				if sh := row[q]; sh != nil && owner != int32(q) {
					sh.ExpectInits++
				}
			}
		}
		for q, fwds := range tile.Forwards {
			for _, f := range fwds {
				if sh := row[f.Dest]; sh != nil {
					sh.ExpectInputs++
				}
			}
			sh := row[q]
			if sh == nil || len(fwds) == 0 {
				continue
			}
			// File every forward under its read: at[i] is input i's place in
			// this share's Reads (Verify: a processor forwards only what it reads).
			if at == nil {
				at = make([]int32, len(w.Inputs))
			}
			for k, i := range sh.Reads {
				at[i] = int32(k)
			}
			sh.Forward = make([][]Dest, len(sh.Reads))
			for _, f := range fwds {
				sh.Forward[at[f.Input]] = append(sh.Forward[at[f.Input]], Dest{To: f.Dest})
			}
		}
		for q, sh := range row {
			if sh == nil {
				continue
			}
			for _, o := range tile.Locals[q] {
				held[q][o] = true
			}
			for _, o := range tile.Ghosts[q] {
				held[q][o] = true
			}
		}
		for q, sh := range row {
			if sh == nil {
				continue
			}
			sh.ReadPairs = make([]int32, len(sh.Reads))
			for k, i := range sh.Reads {
				sh.ReadPairs[k] = pairs(t, int32(q), i)
				if only < 0 {
					for j, d := range sh.Dests(k) {
						sh.Forward[k][j].Pairs = pairs(t, d.To, i)
					}
				}
			}
		}
	}
	return out
}
