// Package core is the orchestration layer of ADR: a Repository owns the
// attribute space registry, the disk farm, the dataset catalog and the
// machine description, and drives a range query through index lookup,
// workload construction, query planning and parallel execution — the
// pipeline the paper's front-end/back-end split implements (Fig 2).
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"adr/internal/chunk"
	"adr/internal/costmodel"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// Options configures a Repository.
type Options struct {
	// Nodes is the number of back-end processors (>= 1).
	Nodes int
	// DisksPerNode is the number of disks attached to each node (default 1,
	// matching the paper's SP configuration).
	DisksPerNode int
	// AccMemBytes is per-node accumulator memory for tiling (default 8 MiB,
	// the DESIGN.md machine model).
	AccMemBytes int64
	// StoreDir, when non-empty, backs each disk with a FileStore under
	// StoreDir/disk<N>; otherwise disks are in-memory. A farm another
	// process loaded is cataloged with RegisterDataset.
	StoreDir string
	// CacheBytes, when > 0, layers a shared memory-bounded chunk cache
	// (layout.ChunkCache) over the farm's disks, so repeated queries over a
	// hot region read each chunk from disk once. Most useful with StoreDir;
	// legal (if pointless) over in-memory disks.
	CacheBytes int64
	// Replicas is the number of copies of each chunk LoadDataset places,
	// chain-declustered across the farm's disks (layout.Loader.Replicas);
	// <= 1 loads unreplicated. Degraded-mode execution needs >= 2 to re-plan
	// around a dead node.
	Replicas int
	// Codec is the codec LoadDataset stores chunk payloads with
	// (layout.Loader.Codec). Queries forward stored chunks in the form they
	// are stored and send what the engine originates raw. The zero value
	// (chunk.CodecNone) keeps the classic raw layout.
	Codec chunk.Codec
	// Flow bounds each link's in-flight forwarded bytes on the repository's
	// fabric (see rpc.Flow); concurrent queries share the window.
	Flow rpc.Flow
}

// DefaultAccMemBytes is the per-processor accumulator memory used when the
// caller does not choose one: 8 MiB, which makes the paper's output dataset
// sizes span several tiles under FRA while DA fits in one — the regime §3
// analyses.
const DefaultAccMemBytes = 8 << 20

// Repository is an in-process ADR instance: a parallel back-end of Nodes
// goroutine groups on one inproc RPC fabric, serving queries until Close.
type Repository struct {
	registry *space.Registry
	farm     *layout.Farm
	replicas int
	codec    chunk.Codec
	// fabric and mesh are the back-end every query runs on, for its lifetime.
	fabric *rpc.InprocFabric
	mesh   *engine.Mesh
	// exec is the shared query path; its calibration lives in memory only,
	// and the repository is its own AUTO resolver — one calibration, no mesh
	// to diverge.
	exec Exec

	mu       sync.RWMutex
	datasets map[string]*layout.Dataset
}

// NewRepository builds a repository.
func NewRepository(opts Options) (*Repository, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("core: repository needs >= 1 node")
	}
	if opts.DisksPerNode < 1 {
		opts.DisksPerNode = 1
	}
	if opts.AccMemBytes <= 0 {
		opts.AccMemBytes = DefaultAccMemBytes
	}
	fabric, err := rpc.NewInprocFabricOpts(opts.Nodes, rpc.InprocOptions{Flow: opts.Flow})
	if err != nil {
		return nil, err
	}
	var farm *layout.Farm
	if opts.StoreDir != "" {
		farm, err = layout.NewFarm(opts.Nodes, opts.DisksPerNode, func(disk int) (layout.Store, error) {
			return layout.NewFileStore(fmt.Sprintf("%s/disk%03d", opts.StoreDir, disk))
		})
	} else {
		farm, err = layout.NewMemFarm(opts.Nodes, opts.DisksPerNode)
	}
	if err != nil {
		fabric.Close()
		return nil, err
	}
	if opts.CacheBytes > 0 {
		farm.WithCache(layout.NewChunkCache(opts.CacheBytes))
	}
	r := &Repository{
		registry: space.NewRegistry(),
		farm:     farm,
		replicas: opts.Replicas,
		codec:    opts.Codec,
		fabric:   fabric,
		datasets: make(map[string]*layout.Dataset),
		exec: Exec{
			Machine:      plan.Machine{Procs: opts.Nodes, AccMemBytes: opts.AccMemBytes},
			DisksPerNode: opts.DisksPerNode,
			Calib:        &costmodel.Calibration{},
		},
	}
	r.exec.Resolve = r.resolve
	if r.mesh, err = engine.NewMesh(fabric, opts.Nodes); err != nil {
		fabric.Close()
		farm.Close()
		return nil, err
	}
	return r, nil
}

// Registry exposes the attribute space service.
func (r *Repository) Registry() *space.Registry { return r.registry }

// Farm exposes the disk farm.
func (r *Repository) Farm() *layout.Farm { return r.farm }

// Machine returns the planner's machine description.
func (r *Repository) Machine() plan.Machine { return r.exec.Machine }

// Close shuts the back-end and the farm down; queries still running fail.
func (r *Repository) Close() error {
	r.mesh.Close()
	r.fabric.Close()
	return r.farm.Close()
}

// LoadDataset runs the §2.2 loading pipeline and catalogs the dataset. The
// attribute space is registered on first use.
func (r *Repository) LoadDataset(name string, sp space.AttrSpace, chunks []*chunk.Chunk) (*layout.Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.datasets[name]; ok {
		return nil, fmt.Errorf("core: dataset %q already loaded", name)
	}
	if _, ok := r.registry.Lookup(sp.Name); !ok {
		if err := r.registry.Register(sp); err != nil {
			return nil, err
		}
	}
	loader := &layout.Loader{Farm: r.farm, Replicas: r.replicas, Codec: r.codec}
	ds, err := loader.Load(name, sp, chunks)
	if err != nil {
		return nil, err
	}
	r.datasets[name] = ds
	return ds, nil
}

// RegisterDataset catalogs a dataset whose chunks are already resident on
// the farm: one a manifest describes (layout.LoadManifest over StoreDir) or
// one loaded by driving layout.Loader directly. The back-end daemon keeps
// its own catalog and does not use it.
func (r *Repository) RegisterDataset(ds *layout.Dataset) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.datasets[ds.Name]; ok {
		return fmt.Errorf("core: dataset %q already loaded", ds.Name)
	}
	if _, ok := r.registry.Lookup(ds.Space.Name); !ok {
		if err := r.registry.Register(ds.Space); err != nil {
			return err
		}
	}
	r.datasets[ds.Name] = ds
	return nil
}

// Dataset looks up a cataloged dataset.
func (r *Repository) Dataset(name string) (*layout.Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.datasets[name]
	return ds, ok
}

// DatasetNames returns the catalog in sorted order.
func (r *Repository) DatasetNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.datasets))
	for n := range r.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Query is one range query with its user customization.
type Query struct {
	// Input and Output name cataloged datasets.
	Input, Output string
	// InputBox and OutputBox are the range query in the respective
	// attribute spaces; an empty Rect selects the whole space.
	InputBox, OutputBox space.Rect
	// Mapper projects input-space regions into the output space; nil uses
	// a mapping registered in the attribute space registry, falling back to
	// identity when the spaces coincide.
	Mapper space.RectMapper
	// Strategy selects the §3 planning strategy.
	Strategy plan.Strategy
	// App is the user customization (Initialize/Aggregate/Combine/Output).
	App engine.App
	// ResultDataset, when non-empty, writes finished chunks back to the
	// farm under this name.
	ResultDataset string
}

// Result is a completed query.
type Result struct {
	// Chunks holds the finished output chunks in output-position order.
	Chunks []*chunk.Chunk
	// Plan is the executed plan.
	Plan *plan.Plan
	// Workload is the planner input (selected chunks and mapping).
	Workload *plan.Workload
	// Report aggregates per-node execution metrics.
	Report *engine.Report
	// Selection records cost-model strategy selection for AUTO queries
	// (chosen strategy, per-candidate predictions, predicted vs actual
	// time); nil for fixed-strategy queries.
	Selection *metrics.Selection
}

// resolve looks up the query's datasets and picks its mapping function: the
// query's own, else one registered for the two spaces, else identity when
// the spaces coincide.
func (r *Repository) resolve(q *Query) (in, out *layout.Dataset, mapper space.RectMapper, err error) {
	in, ok := r.Dataset(q.Input)
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: input dataset %q not loaded", q.Input)
	}
	out, ok = r.Dataset(q.Output)
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: output dataset %q not loaded", q.Output)
	}
	if q.Mapper != nil {
		return in, out, q.Mapper, nil
	}
	if m, ok := r.registry.Mapping(in.Space.Name, out.Space.Name); ok {
		return in, out, m, nil
	}
	if in.Space.Name == out.Space.Name || in.Space.Bounds.Dims == out.Space.Bounds.Dims {
		return in, out, space.IdentityMapper{}, nil
	}
	return nil, nil, nil, fmt.Errorf("core: no mapping registered %q -> %q", in.Space.Name, out.Space.Name)
}

// BuildWorkload runs index lookup and chunk-level mapping for a query: the
// front half of the query planning service.
func (r *Repository) BuildWorkload(q *Query) (*plan.Workload, error) {
	return r.exec.workload(q)
}

// boxOrBounds resolves a query box against its dataset: empty selects the
// whole space. A box of another dimensionality is rejected — it intersects
// nothing, so it would otherwise read as a valid empty selection.
func boxOrBounds(role string, box space.Rect, ds *layout.Dataset) (space.Rect, error) {
	if box.IsEmpty() {
		return ds.Space.Bounds, nil
	}
	if box.Dims != ds.Space.Bounds.Dims {
		return box, fmt.Errorf("core: %s box has %d dimensions, dataset %q has %d",
			role, box.Dims, ds.Name, ds.Space.Bounds.Dims)
	}
	return box, nil
}

// BuildWorkload is the deterministic workload-construction step shared by
// the in-process repository and the back-end node daemons (every daemon
// derives the identical workload, and therefore the identical plan, from
// the shared catalog).
func BuildWorkload(in, out *layout.Dataset, inBox, outBox space.Rect, mapper space.RectMapper) (*plan.Workload, error) {
	if mapper == nil {
		mapper = space.IdentityMapper{}
	}
	inBox, err := boxOrBounds("input", inBox, in)
	if err != nil {
		return nil, err
	}
	outBox, err = boxOrBounds("output", outBox, out)
	if err != nil {
		return nil, err
	}

	inputs := in.Select(inBox)
	outputs := out.Select(outBox)

	// Positions of selected outputs, for target translation: a search of
	// the output dataset's own R-tree finds every output a mapped input
	// intersects, and outPos keeps the selected ones.
	outPos := make(map[chunk.ID]int32, len(outputs))
	for pos, m := range outputs {
		outPos[m.ID] = int32(pos)
	}

	w := &plan.Workload{
		Inputs:  inputs,
		Outputs: outputs,
		Targets: make([][]int32, 0, len(inputs)),
	}
	kept := w.Inputs[:0]
	targets := w.Targets
	for _, im := range inputs {
		mapped := mapper.MapRect(im.MBR)
		var ts []int32
		if !mapped.IsEmpty() {
			for _, id := range out.Index.Search(mapped) {
				if pos, ok := outPos[id]; ok {
					ts = append(ts, pos)
				}
			}
		}
		if len(ts) == 0 {
			// Input chunks projecting to no selected output contribute
			// nothing; drop them from the workload.
			continue
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		kept = append(kept, im)
		targets = append(targets, ts)
	}
	w.Inputs = kept
	w.Targets = targets
	return w, nil
}

// ExecuteBatch runs a set of queries through the back-end in submission
// order, as ADR's query submission service queues client queries (§2.1;
// §2.3: the query planning service "determines a query plan to efficiently
// process a set of queries based on the amount of available resources in
// the back-end"). Execution stops at the first failure; the returned slice
// holds results for the queries completed so far.
func (r *Repository) ExecuteBatch(ctx context.Context, qs []*Query) ([]*Result, error) {
	results := make([]*Result, 0, len(qs))
	for i, q := range qs {
		res, err := r.Execute(ctx, q)
		if err != nil {
			return results, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// Execute plans and runs a query on the in-process back-end: the shared
// prepare step, a run on the repository's long-lived mesh (concurrent calls
// share it), and the shared observe step (see Exec).
func (r *Repository) Execute(ctx context.Context, q *Query) (*Result, error) {
	if q.App == nil {
		return nil, fmt.Errorf("core: query needs an App")
	}
	cfg, sel, err := r.exec.Prepare(q, nil)
	if err != nil {
		return nil, err
	}
	w := cfg.Workload

	var mu sync.Mutex
	results := make([]*chunk.Chunk, len(w.Outputs))
	idToPos := make(map[chunk.ID]int32, len(w.Outputs))
	for pos, m := range w.Outputs {
		idToPos[m.ID] = int32(pos)
	}
	cfg.OnResult = func(node rpc.NodeID, c *chunk.Chunk) error {
		mu.Lock()
		defer mu.Unlock()
		pos, ok := idToPos[c.Meta.ID]
		if !ok {
			return fmt.Errorf("core: result for unknown output chunk %d", c.Meta.ID)
		}
		results[pos] = c
		return nil
	}

	report, err := r.mesh.Run(ctx, cfg, engine.FarmStorage{Farm: r.farm})
	if err != nil {
		return nil, err
	}
	for pos, c := range results {
		if c == nil {
			return nil, fmt.Errorf("core: output position %d never emitted", pos)
		}
	}
	r.exec.Observe(&cfg, sel, report.Traces...)
	return &Result{Chunks: results, Plan: cfg.Plan, Workload: w, Report: report, Selection: sel}, nil
}
