package plan

// Stats summarizes a plan: the quantities §3 and §4 reason about when
// comparing strategies (tile counts, ghost allocations, forwarded input
// chunks, repeated retrievals). The execution engines compute timing; these
// are the structural counts that drive it.
type Stats struct {
	Tiles int
	// GhostChunks is the total number of ghost accumulator allocations
	// across all tiles and processors.
	GhostChunks int
	// GhostBytes is the total size of those allocations.
	GhostBytes int64
	// Forwards is the number of input-chunk transfers; ForwardBytes their
	// volume.
	Forwards     int
	ForwardBytes int64
	// Reads is the total number of input chunk retrievals; ReadBytes their
	// volume. An input chunk appearing in k tiles is counted k times
	// (§2.3: "an input chunk may be retrieved multiple times during
	// execution of the processing loop").
	Reads     int
	ReadBytes int64
	// RereadInputs counts input retrievals beyond the first per chunk —
	// the tile-boundary-crossing cost the Hilbert tiling order minimizes.
	RereadInputs int
	// MaxProcReadBytes is the largest per-processor retrieval volume, an
	// I/O balance indicator.
	MaxProcReadBytes int64
	// OutputShips counts finished output chunks homed away from their owner
	// (hybrid only) that must be shipped during output handling.
	OutputShips int
}

// ComputeStats derives Stats for a plan over its workload by summing the
// per-processor shares.
func ComputeStats(p *Plan, w *Workload) Stats {
	s := Stats{Tiles: len(p.Tiles)}
	seenRead := make([]bool, len(w.Inputs))
	for _, shares := range Schedule(p, w) {
		var procRead int64
		for _, sh := range shares {
			s.GhostChunks += len(sh.Ghosts)
			for _, c := range sh.Ghosts {
				s.GhostBytes += w.AccSize(c)
			}
			s.Reads += len(sh.Reads)
			for k, i := range sh.Reads {
				bytes := w.Inputs[i].Bytes
				procRead += bytes
				s.Forwards += len(sh.Dests(k))
				s.ForwardBytes += int64(len(sh.Dests(k))) * bytes
				if seenRead[i] {
					s.RereadInputs++
				}
				seenRead[i] = true
			}
			s.OutputShips += sh.ExpectFinals
		}
		s.ReadBytes += procRead
		s.MaxProcReadBytes = max(s.MaxProcReadBytes, procRead)
	}
	return s
}
