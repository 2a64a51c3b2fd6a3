// Package plan implements ADR's query planning service: the tiling and
// workload partitioning algorithms that are the core contribution of the
// paper (§3). A plan specifies how parts of the final output are computed
// and the order in which input data chunks are retrieved for processing
// (§2.3).
//
// Planning happens in two steps. In the tiling step, the output dataset is
// partitioned into tiles, each small enough that its accumulator fits in the
// memory set aside for it; output chunks are consumed in Hilbert-curve order
// of their MBR mid-points to keep tiles spatially compact. In the workload
// partitioning step, the aggregation work for each tile is split across
// processors. Both steps are one loop (build) for every strategy; a strategy
// is a row of the table in build.go — who is home for an accumulator chunk,
// and who else allocates a ghost of it:
//
//   - FRA (fully replicated accumulator): every processor allocates every
//     accumulator chunk of the tile and aggregates its local input chunks;
//     ghosts are combined into the owner during the global combine phase.
//   - SRA (sparsely replicated accumulator): like FRA, but a ghost is
//     allocated on a processor only if that processor has at least one input
//     chunk projecting to it.
//   - DA (distributed accumulator): no replication; every input chunk is
//     forwarded to the owners of the output chunks it projects to, and all
//     aggregation happens at the owner.
//   - HYBRID, the graph-partitioned strategy the paper sketches as future
//     work (§6): DA with each accumulator homed where most of its input
//     bytes live rather than at its owner.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"adr/internal/chunk"
	"adr/internal/hilbert"
	"adr/internal/space"
)

// Strategy selects a tiling + workload partitioning algorithm.
type Strategy int

const (
	// FRA is the fully replicated accumulator strategy (paper §3.1, Fig 4).
	FRA Strategy = iota
	// SRA is the sparsely replicated accumulator strategy (§3.2, Fig 5).
	SRA
	// DA is the distributed accumulator strategy (§3.3, Fig 6).
	DA
	// Hybrid is the graph-partitioned strategy sketched in §6.
	Hybrid
	// Auto defers the choice to the cost model (§6: "guide and automate the
	// selection of an appropriate strategy"): the query is planned under
	// every fixed strategy, each plan is costed, and the cheapest executes.
	// Auto is a request, not a plan — it must be resolved to a fixed
	// strategy (costmodel.Select) before Planner.Plan.
	Auto
)

// String returns the strategy's paper abbreviation.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategies) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategies[s].name
}

// ParseStrategy parses a strategy name, case-insensitively ("fra" and "FRA"
// both select FRA).
func ParseStrategy(name string) (Strategy, error) {
	var valid []string
	for s, row := range strategies {
		if strings.EqualFold(name, row.name) {
			return Strategy(s), nil
		}
		valid = append(valid, row.name)
	}
	return 0, fmt.Errorf("plan: unknown strategy %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Strategies lists all implemented (plannable) strategies in paper order.
var Strategies = func() (fixed []Strategy) {
	for s, row := range strategies {
		if row.home != nil {
			fixed = append(fixed, Strategy(s))
		}
	}
	return fixed
}()

// Machine describes the back-end resources the planner partitions work over.
type Machine struct {
	// Procs is the number of back-end processors.
	Procs int
	// AccMemBytes is the memory each processor sets aside for accumulator
	// chunks (§2.3: tiles are sized so "the total size of the chunks in a
	// tile is less than the amount of memory available for output data").
	AccMemBytes int64
}

// Workload is the planner's view of one range query after index lookup: the
// selected input and output chunks and the chunk-level mapping between them.
// Chunks are referred to by position in these slices, not by chunk.ID, so
// that a query selecting a subset of a dataset stays dense.
type Workload struct {
	Inputs  []chunk.Meta
	Outputs []chunk.Meta
	// Targets[i] lists, for input chunk position i, the output chunk
	// positions its items project to under the query's Map function
	// (ascending, no duplicates). It is the chunk-granularity Map relation
	// of Fig 3 step 7.
	Targets [][]int32
	// AccBytes[o] is the size of the accumulator chunk for output position
	// o. If nil, the output chunk's own size is used (accumulators mirror
	// output chunks, as in the paper's applications).
	AccBytes []int64
}

// Validate checks structural consistency of the workload.
func (w *Workload) Validate() error {
	if len(w.Targets) != len(w.Inputs) {
		return fmt.Errorf("plan: %d inputs but %d target lists", len(w.Inputs), len(w.Targets))
	}
	if w.AccBytes != nil && len(w.AccBytes) != len(w.Outputs) {
		return fmt.Errorf("plan: %d outputs but %d accumulator sizes", len(w.Outputs), len(w.AccBytes))
	}
	for i, ts := range w.Targets {
		prev := int32(-1)
		for _, t := range ts {
			if t < 0 || int(t) >= len(w.Outputs) {
				return fmt.Errorf("plan: input %d targets output %d, out of range", i, t)
			}
			if t <= prev {
				return fmt.Errorf("plan: input %d targets not strictly ascending", i)
			}
			prev = t
		}
	}
	return nil
}

// AccSize returns the accumulator size for output position o.
func (w *Workload) AccSize(o int32) int64 {
	if w.AccBytes != nil {
		return w.AccBytes[o]
	}
	return w.Outputs[o].Bytes
}

// Sources returns the inverse of Targets: for each output position, the
// input positions projecting to it (ascending). This is the inverse mapping
// §3.1 calls for ("either an efficient inverse mapping function or an
// efficient search method ... must return the input chunks that map to a
// given output chunk").
func (w *Workload) Sources() [][]int32 {
	src := make([][]int32, len(w.Outputs))
	for i, ts := range w.Targets {
		for _, t := range ts {
			src[t] = append(src[t], int32(i))
		}
	}
	return src
}

// Forward is one interprocessor input-chunk transfer: after reading input
// chunk Input from local disk, a processor holding no accumulator for one of
// the chunk's targets in the current tile sends it to processor Dest, that
// target's home.
type Forward struct {
	Input int32
	Dest  int32
}

// Tile is the per-tile work assignment for every processor.
type Tile struct {
	// Outputs lists the output chunk positions processed in this tile, in
	// tiling (Hilbert) order.
	Outputs []int32
	// Locals[p] lists the accumulator chunks processor p allocates for
	// output chunks homed on it.
	Locals [][]int32
	// Ghosts[p] lists the accumulator chunks processor p allocates for
	// output chunks homed elsewhere (replicating strategies only).
	Ghosts [][]int32
	// Reads[p] lists the input chunk positions p retrieves from its local
	// disks during this tile, in retrieval order.
	Reads [][]int32
	// Forwards[p] lists the input-chunk transfers p performs after reading.
	Forwards [][]Forward
}

// Plan is a complete query plan: the tile sequence plus bookkeeping shared
// by the execution engines.
type Plan struct {
	Strategy Strategy
	Machine  Machine
	Tiles    []Tile
	// TileOf[o] is the tile index output position o was assigned to.
	TileOf []int32
	// Home[o] is the processor responsible for combining the final value of
	// output position o and running Output handling for it. For FRA, SRA
	// and DA the home is the owning node; the hybrid strategy may home an
	// accumulator away from its owner for locality, in which case the final
	// output chunk is shipped to the owner during output handling.
	Home []int32
}

// NumTiles returns the number of tiles in the plan.
func (p *Plan) NumTiles() int { return len(p.Tiles) }

// Planner builds plans for workloads on a machine.
type Planner struct {
	Machine Machine
	// Exclude is the per-query node-exclusion set: processors the resolver
	// knows dead (core.Exec.Prepare). Excluded processors are assigned no
	// ghosts and are never chosen as homes. The workload must already have
	// been remapped away from excluded nodes (see Degrade) — Plan rejects a
	// workload whose chunk metas still reference an excluded processor.
	Exclude map[int32]bool
}

// excluded reports whether processor q is in the exclusion set.
func (pl *Planner) excluded(q int32) bool { return pl.Exclude[q] }

// NewPlanner returns a planner for the given machine. AccMemBytes must be
// positive and Procs at least 1.
func NewPlanner(m Machine) (*Planner, error) {
	if m.Procs < 1 {
		return nil, fmt.Errorf("plan: machine has %d processors", m.Procs)
	}
	if m.AccMemBytes <= 0 {
		return nil, fmt.Errorf("plan: non-positive accumulator memory %d", m.AccMemBytes)
	}
	return &Planner{Machine: m}, nil
}

// Plan runs the tiling and workload partitioning step for the strategy.
func (pl *Planner) Plan(s Strategy, w *Workload) (*Plan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := pl.checkOwners(w); err != nil {
		return nil, err
	}
	if s < 0 || int(s) >= len(strategies) {
		return nil, fmt.Errorf("plan: unknown strategy %v", s)
	}
	if strategies[s].home == nil {
		return nil, fmt.Errorf("plan: %v is not a plannable strategy; resolve it to a fixed strategy first (costmodel.Select)", s)
	}
	return pl.build(s, w), nil
}

// checkOwners verifies every chunk's owning node is a valid, non-excluded
// processor.
func (pl *Planner) checkOwners(w *Workload) error {
	for i, m := range w.Inputs {
		if m.Node < 0 || int(m.Node) >= pl.Machine.Procs {
			return fmt.Errorf("plan: input %d owned by node %d, machine has %d", i, m.Node, pl.Machine.Procs)
		}
		if pl.excluded(m.Node) {
			return fmt.Errorf("plan: input %d owned by excluded node %d", i, m.Node)
		}
	}
	for o, m := range w.Outputs {
		if m.Node < 0 || int(m.Node) >= pl.Machine.Procs {
			return fmt.Errorf("plan: output %d owned by node %d, machine has %d", o, m.Node, pl.Machine.Procs)
		}
		if pl.excluded(m.Node) {
			return fmt.Errorf("plan: output %d owned by excluded node %d", o, m.Node)
		}
	}
	return nil
}

// tilingOrder returns output chunk positions sorted by the Hilbert index of
// their MBR mid-points (§3: "the mid-point of the bounding box of each
// output chunk is used to generate a Hilbert curve index. The chunks are
// sorted with respect to this index, and selected in this order for
// tiling"). Ties and quantization failures fall back to position order.
func tilingOrder(outputs []chunk.Meta) []int32 {
	order := make([]int32, len(outputs))
	for i := range order {
		order[i] = int32(i)
	}
	if len(outputs) == 0 {
		return order
	}
	var bounds space.Rect
	for _, m := range outputs {
		bounds = bounds.Union(m.MBR)
	}
	q, err := hilbert.NewQuantizer(bounds, hilbert.OrderFor(bounds.Dims))
	if err != nil {
		return order
	}
	keys := make([]uint64, len(outputs))
	for i, m := range outputs {
		k, kerr := q.Index(m.MBR.Center())
		if kerr != nil {
			k = uint64(i)
		}
		keys[i] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		return keys[order[a]] < keys[order[b]]
	})
	return order
}

// newTile allocates an empty per-processor tile layout.
func newTile(procs int) Tile {
	return Tile{
		Locals:   make([][]int32, procs),
		Ghosts:   make([][]int32, procs),
		Reads:    make([][]int32, procs),
		Forwards: make([][]Forward, procs),
	}
}
