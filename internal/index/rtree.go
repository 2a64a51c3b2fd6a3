package index

import (
	"sort"

	"adr/internal/chunk"
	"adr/internal/hilbert"
	"adr/internal/space"
)

// RTree is a Hilbert-packed R-tree over chunk MBRs. Bulk loading sorts the
// entries by the Hilbert index of their MBR mid-points and packs them into
// nodes bottom-up, which yields well-clustered leaves for the spatially
// declustered chunk layouts ADR produces (the same locality argument the
// paper makes for Hilbert-ordered tiling, §3). A dataset's tree is built
// once, when its catalog is loaded.
type RTree struct {
	root   *rnode
	fanout int
	count  int
}

type rnode struct {
	mbr      space.Rect
	leaf     bool
	entries  []Entry  // leaf payload
	children []*rnode // internal payload
}

// defaultFanout is the node capacity used when callers pass fanout <= 0. 16
// keeps trees shallow for the catalog sizes in the paper (up to ~144K
// chunks: 4 levels) while keeping per-node scans cheap.
const defaultFanout = 16

// BulkLoad builds an R-tree over entries. All MBRs must share a
// dimensionality. The input slice is not retained.
func BulkLoad(entries []Entry, fanout int) *RTree {
	if fanout <= 0 {
		fanout = defaultFanout
	}
	t := &RTree{fanout: fanout}
	if len(entries) == 0 {
		return t
	}
	t.count = len(entries)

	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sortByHilbert(sorted)

	// Pack leaves.
	var level []*rnode
	for i := 0; i < len(sorted); i += fanout {
		end := i + fanout
		if end > len(sorted) {
			end = len(sorted)
		}
		n := &rnode{leaf: true, entries: append([]Entry(nil), sorted[i:end]...)}
		for _, e := range n.entries {
			n.mbr = n.mbr.Union(e.MBR)
		}
		level = append(level, n)
	}
	// Pack upward until a single root remains.
	for len(level) > 1 {
		var next []*rnode
		for i := 0; i < len(level); i += fanout {
			end := i + fanout
			if end > len(level) {
				end = len(level)
			}
			n := &rnode{children: append([]*rnode(nil), level[i:end]...)}
			for _, c := range n.children {
				n.mbr = n.mbr.Union(c.mbr)
			}
			next = append(next, n)
		}
		level = next
	}
	t.root = level[0]
	return t
}

// sortByHilbert orders entries by the Hilbert index of their MBR mid-points,
// quantized over the union of all MBRs. Falls back to ID order when a curve
// cannot be built (degenerate bounds).
func sortByHilbert(entries []Entry) {
	var bounds space.Rect
	for _, e := range entries {
		bounds = bounds.Union(e.MBR)
	}
	q, err := hilbert.NewQuantizer(bounds, hilbert.OrderFor(bounds.Dims))
	if err != nil {
		sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
		return
	}
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		k, err := q.Index(e.MBR.Center())
		if err != nil {
			k = uint64(e.ID)
		}
		keys[i] = k
	}
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if keys[idx[a]] != keys[idx[b]] {
			return keys[idx[a]] < keys[idx[b]]
		}
		return entries[idx[a]].ID < entries[idx[b]].ID
	})
	out := make([]Entry, len(entries))
	for i, j := range idx {
		out[i] = entries[j]
	}
	copy(entries, out)
}

// Search returns the IDs of all entries whose MBRs intersect query, in
// ascending ID order.
func (t *RTree) Search(query space.Rect) []chunk.ID {
	if t.root == nil {
		return nil
	}
	var out []chunk.ID
	var walk func(n *rnode)
	walk = func(n *rnode) {
		if !n.mbr.Intersects(query) {
			return
		}
		if n.leaf {
			for _, e := range n.entries {
				if e.MBR.Intersects(query) {
					out = append(out, e.ID)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.count }
