package layout

import (
	"fmt"
	"sort"
	"sync"

	"adr/internal/chunk"
	"adr/internal/decluster"
	"adr/internal/index"
	"adr/internal/space"
)

// Dataset is the catalog entry for one loaded dataset: chunk metadata
// (replicated on every node; payloads stay on their disks), the attribute
// space, and the spatial index built over chunk MBRs.
type Dataset struct {
	Name  string
	Space space.AttrSpace
	// Chunks is indexed by chunk.ID.
	Chunks []chunk.Meta
	// Index finds chunks intersecting a range query.
	Index index.Index
	// Codec is the compression codec the dataset was loaded with (CodecNone
	// for raw layouts). Individual chunks may still be raw when the adaptive
	// sampler skipped them; per-chunk Meta.StoredBytes is authoritative.
	Codec chunk.Codec
}

// Select returns the metadata of all chunks intersecting query, the result
// of the index lookup that starts query planning.
func (d *Dataset) Select(query space.Rect) []chunk.Meta {
	ids := d.Index.Search(query)
	out := make([]chunk.Meta, len(ids))
	for i, id := range ids {
		out[i] = d.Chunks[id]
	}
	return out
}

// TotalBytes returns the dataset's logical (raw-encoding) payload volume.
func (d *Dataset) TotalBytes() int64 {
	var n int64
	for _, m := range d.Chunks {
		n += m.Bytes
	}
	return n
}

// StoredTotalBytes returns the dataset's on-disk payload volume per copy:
// compressed chunks count their envelope size, raw chunks their full
// encoding. The ratio StoredTotalBytes/TotalBytes is the achieved
// compression ratio.
func (d *Dataset) StoredTotalBytes() int64 {
	var n int64
	for _, m := range d.Chunks {
		n += m.StoredOrRaw()
	}
	return n
}

// Farm is the disk farm: Nodes back-end processors with DisksPerNode disks
// each. Disk ids are global; disk g is attached to node g/DisksPerNode.
type Farm struct {
	Nodes        int
	DisksPerNode int
	stores       []Store // by global disk id
}

// NewFarm builds a farm whose disks are backed by the given constructor
// (e.g. in-memory stores, or file stores rooted per disk directory).
func NewFarm(nodes, disksPerNode int, newStore func(disk int) (Store, error)) (*Farm, error) {
	if nodes < 1 || disksPerNode < 1 {
		return nil, fmt.Errorf("layout: farm needs >=1 node and >=1 disk, got %d/%d", nodes, disksPerNode)
	}
	f := &Farm{Nodes: nodes, DisksPerNode: disksPerNode}
	for g := 0; g < nodes*disksPerNode; g++ {
		s, err := newStore(g)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.stores = append(f.stores, s)
	}
	return f, nil
}

// NewMemFarm builds a farm of in-memory disks.
func NewMemFarm(nodes, disksPerNode int) (*Farm, error) {
	return NewFarm(nodes, disksPerNode, func(int) (Store, error) { return newMemStore(), nil })
}

// WithCache wraps every disk store of the farm so reads are served through
// the shared cache (one budget for the whole node, as the cache is keyed by
// (dataset, chunk id) and ids are unique across a dataset's disks). A nil
// cache leaves the farm untouched. Returns the farm for chaining.
func (f *Farm) WithCache(c *ChunkCache) *Farm {
	if c == nil {
		return f
	}
	for i, s := range f.stores {
		f.stores[i] = NewCachedStore(s, c)
	}
	return f
}

// NumDisks returns the total disk count.
func (f *Farm) NumDisks() int { return f.Nodes * f.DisksPerNode }

// NodeOf returns the node a global disk is attached to.
func (f *Farm) NodeOf(disk int) int { return disk / f.DisksPerNode }

// Store returns the store for a global disk.
func (f *Farm) Store(disk int) (Store, error) {
	if disk < 0 || disk >= len(f.stores) {
		return nil, fmt.Errorf("layout: no disk %d in farm of %d", disk, len(f.stores))
	}
	return f.stores[disk], nil
}

// Close closes every disk store.
func (f *Farm) Close() error {
	var first error
	for _, s := range f.stores {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Loader runs the §2.2 loading pipeline: (1) the caller partitions data into
// chunks, (2) the loader computes placement with a declustering algorithm,
// (3) moves encoded chunks to their disks, and (4) builds the index — a
// Hilbert-packed R-tree over the chunk MBRs, the same one LoadManifest
// rebuilds at every daemon start.
type Loader struct {
	Farm *Farm
	// Replicas is the number of copies stored per chunk (chained replica
	// placement; see decluster.Replicate). <= 1 stores a single copy, the
	// classic ADR layout. With >= 2 copies on a multi-node farm, queries can
	// keep running across a single node's death (degraded-mode execution).
	Replicas int
	// Codec compresses chunk payloads before they are moved to their disks
	// (CodecNone stores raw encodings, the classic layout). Payloads are
	// self-describing, so any reader can open a compressed farm.
	Codec chunk.Codec
	// MinRatio is the adaptive-skip threshold passed to chunk.Compress: a
	// chunk whose compressed/raw ratio lands at or above it is stored raw.
	// Zero selects chunk.DefaultMinRatio.
	MinRatio float64
}

// Load stores a dataset onto the farm and returns its catalog. Chunk IDs
// are assigned in input order; each chunk's MBR is computed from its items
// unless already set (pre-chunked datasets).
func (l *Loader) Load(name string, sp space.AttrSpace, chunks []*chunk.Chunk) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("layout: dataset needs a name")
	}
	if err := sp.Valid(); err != nil {
		return nil, err
	}
	// Step 1 output: finalize per-chunk metadata.
	entries := make([]index.Entry, len(chunks))
	for i, c := range chunks {
		c.Meta.ID = chunk.ID(i)
		c.Meta.Dataset = name
		c.Meta.Items = int32(len(c.Items))
		if c.Meta.MBR.IsEmpty() && len(c.Items) > 0 {
			c.Meta.MBR = chunk.ComputeMBR(c.Items)
		}
		if c.Meta.MBR.IsEmpty() {
			return nil, fmt.Errorf("layout: chunk %d of %s has no MBR and no items", i, name)
		}
		if c.Meta.MBR.Dims != sp.Dims() {
			return nil, fmt.Errorf("layout: chunk %d MBR dims %d != space dims %d", i, c.Meta.MBR.Dims, sp.Dims())
		}
		entries[i] = index.Entry{MBR: c.Meta.MBR, ID: c.Meta.ID}
	}
	// Step 2: placement, by Hilbert declustering.
	disks := decluster.Hilbert{Bounds: sp.Bounds}.Assign(entries, l.Farm.NumDisks())
	holders := decluster.Replicate(disks, l.Farm.NumDisks(), l.Farm.DisksPerNode, l.Replicas)
	// Step 3: move chunks to disks (parallel across disks, as the utility
	// functions of the dataset service would drive the real farm). With
	// replication every holder disk receives a copy.
	metas := make([]chunk.Meta, len(chunks))
	var wg sync.WaitGroup
	errCh := make(chan error, len(chunks))
	sem := make(chan struct{}, l.Farm.NumDisks())
	for i, c := range chunks {
		c.Meta.Disk = int32(disks[i])
		c.Meta.Node = int32(l.Farm.NodeOf(disks[i]))
		if len(holders[i]) > 1 {
			c.Meta.Holders = holders[i]
		}
		data := chunk.Encode(c)
		c.Meta.Bytes = int64(len(data))
		c.Meta.StoredBytes = 0
		if l.Codec != chunk.CodecNone {
			minRatio := l.MinRatio
			if minRatio == 0 {
				minRatio = chunk.DefaultMinRatio
			}
			if env, used := chunk.Compress(data, l.Codec, minRatio); used != chunk.CodecNone {
				data = env
				c.Meta.StoredBytes = int64(len(env))
			}
		}
		metas[i] = c.Meta
		wg.Add(1)
		sem <- struct{}{}
		go func(m chunk.Meta, data []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			for _, h := range m.HolderDisks() {
				st, err := l.Farm.Store(int(h))
				if err != nil {
					errCh <- err
					return
				}
				if err := st.Put(name, m.ID, data); err != nil {
					errCh <- err
					return
				}
			}
		}(metas[i], data)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	// Step 4: index.
	return &Dataset{
		Name:   name,
		Space:  sp,
		Chunks: metas,
		Index:  index.BulkLoad(entries, 0),
		Codec:  l.Codec,
	}, nil
}

// PartitionGrid groups items into chunks by the cells of a regular grid:
// the §2.2 partitioning step for the dense regular datasets (WCS, VM), and
// a reasonable default for irregular points too (items landing in the same
// cell are spatially close, which is what chunking wants). Cells with no
// items produce no chunk. Items outside the grid bounds are rejected.
func PartitionGrid(items []chunk.Item, g *space.Grid) ([]*chunk.Chunk, error) {
	byCell := make(map[int][]chunk.Item)
	for i, it := range items {
		cell, ok := g.CellAt(it.Coord)
		if !ok {
			return nil, fmt.Errorf("layout: item %d at %v outside grid bounds", i, it.Coord)
		}
		byCell[cell] = append(byCell[cell], it)
	}
	cells := make([]int, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	chunks := make([]*chunk.Chunk, 0, len(cells))
	for _, c := range cells {
		its := byCell[c]
		chunks = append(chunks, &chunk.Chunk{
			Meta:  chunk.Meta{MBR: chunk.ComputeMBR(its)},
			Items: its,
		})
	}
	return chunks, nil
}
