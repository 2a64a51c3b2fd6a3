package engine

import (
	"fmt"
	"runtime"

	"adr/internal/chunk"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// ChunkStorage is the node's view of its local disks: reads and writes are
// legal only for chunks whose metadata places them on this node (§2.2: a
// chunk "is read and/or written during query processing only by the local
// processor to which the disk is attached").
type ChunkStorage interface {
	// ReadChunkCached returns the encoded payload of a local chunk and
	// whether a chunk cache served it without a disk read by this caller;
	// the engine counts hits on the query's trace and times only misses as
	// disk reads. A storage without a cache reports false. A chunk the
	// storage does not hold is an error wrapping layout.ErrNotFound.
	ReadChunkCached(dataset string, m chunk.Meta) (data []byte, hit bool, err error)
	// WriteChunk stores an encoded output chunk on the disk named by m.
	WriteChunk(dataset string, m chunk.Meta, data []byte) error
}

// FarmStorage adapts a layout.Farm to ChunkStorage. When the farm's stores
// are cache-wrapped (layout.Farm.WithCache), its reads report cache hits.
type FarmStorage struct {
	Farm *layout.Farm
}

// ReadChunk reads from the chunk's disk store.
func (f FarmStorage) ReadChunk(dataset string, m chunk.Meta) ([]byte, error) {
	data, _, err := f.ReadChunkCached(dataset, m)
	return data, err
}

// ReadChunkCached reads from the chunk's disk store, reporting whether the
// read was a cache hit (always false for uncached stores).
func (f FarmStorage) ReadChunkCached(dataset string, m chunk.Meta) (data []byte, hit bool, err error) {
	st, err := f.Farm.Store(int(m.Disk))
	if err != nil {
		return nil, false, err
	}
	if cs, ok := st.(*layout.CachedStore); ok {
		return cs.GetCached(dataset, m.ID)
	}
	data, err = st.Get(dataset, m.ID)
	return data, false, err
}

// WriteChunk writes to the chunk's disk store — every holder disk when the
// chunk is replicated, so replicas stay coherent across result writes (the
// per-disk CachedStore Put invalidation fires on each copy).
func (f FarmStorage) WriteChunk(dataset string, m chunk.Meta, data []byte) error {
	for _, h := range m.HolderDisks() {
		st, err := f.Farm.Store(int(h))
		if err != nil {
			return err
		}
		if err := st.Put(dataset, m.ID, data); err != nil {
			return err
		}
	}
	return nil
}

// Config describes one query execution.
type Config struct {
	Plan     *plan.Plan
	Workload *plan.Workload
	App      App

	// InputDataset and OutputDataset name the datasets in storage.
	// OutputDataset is consulted only when the App requires existing
	// output chunks for initialization.
	InputDataset  string
	OutputDataset string

	// ResultDataset, when non-empty, makes output handling write finished
	// chunks back to storage under this name at the owning node's disk. It
	// may equal OutputDataset to update the dataset in place.
	ResultDataset string

	// OnResult, when non-nil, is invoked (on the owning node, in that
	// node's goroutine/process) with every finished output chunk — the
	// engine-level hook the front-end uses to return query output to
	// clients. Implementations must be safe for concurrent calls from
	// different nodes.
	OnResult func(node rpc.NodeID, c *chunk.Chunk) error

	// Workers is the per-node execution-pipeline width: how many goroutines
	// decode and aggregate chunks concurrently during local reduction and
	// global combine. <= 0 selects runtime.GOMAXPROCS(0). Any width produces
	// identical results — ADR aggregation functions are commutative and
	// associative (§1), so interleaving order cannot change an accumulator's
	// final value — but widths > 1 let a multi-core node keep every core on
	// the decode+aggregate hot path instead of one.
	Workers int

	// Exclude lists the dead processors the plan was made without
	// (plan.Degrade onto surviving replica holders, then
	// plan.Planner.Exclude): their deaths, before or during the run, do not
	// fail the query, and the node trace reports the run degraded. Any other
	// peer's death fails it retryably. Every node of a query must run with
	// the same set: the resolver that submitted the query chose it.
	Exclude []rpc.NodeID

	// serialStorage backs RunSerial only; see WithSerialStorage.
	serialStorage ChunkStorage
}

// workers resolves the configured pipeline width.
func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Validate checks the configuration for obvious inconsistencies.
func (c *Config) Validate() error {
	if c.Plan == nil || c.Workload == nil {
		return fmt.Errorf("engine: plan and workload are required")
	}
	if c.App == nil {
		return fmt.Errorf("engine: app is required")
	}
	if c.InputDataset == "" {
		return fmt.Errorf("engine: input dataset name is required")
	}
	if c.App.InitRequiresOutput() && c.OutputDataset == "" {
		return fmt.Errorf("engine: app requires existing output but no output dataset named")
	}
	if c.ResultDataset == "" && c.OnResult == nil {
		return fmt.Errorf("engine: results have nowhere to go: set ResultDataset and/or OnResult")
	}
	return plan.Verify(c.Plan, c.Workload)
}

// Report aggregates the execution's per-node metrics.
type Report struct {
	// Traces is each node's per-phase accounting, indexed by node; Totals
	// carries the node's flat counters.
	Traces []metrics.NodeTrace
}

// Trace assembles the report's node traces into a QueryTrace.
func (r *Report) Trace(queryID int32) *metrics.QueryTrace {
	return &metrics.QueryTrace{QueryID: queryID, Nodes: r.Traces}
}

// Total sums all nodes' counters.
func (r *Report) Total() metrics.Snapshot { return r.Trace(0).Total() }
