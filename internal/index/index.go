// Package index implements ADR's indexing service substrate: spatial indices
// over chunk MBRs. An index returns the set of chunks containing data items
// that fall inside a multi-dimensional range query (paper §2.1). The default
// index is an R-tree built over chunk MBRs after loading (§2.2 step 4); a
// linear index is the reference implementation the R-tree is tested against.
package index

import (
	"sort"

	"adr/internal/chunk"
	"adr/internal/space"
)

// Entry is one indexed chunk: its MBR and identity.
type Entry struct {
	MBR space.Rect
	ID  chunk.ID
}

// Index finds chunks intersecting a range query.
type Index interface {
	// Search returns the IDs of all entries whose MBRs intersect query, in
	// ascending ID order.
	Search(query space.Rect) []chunk.ID
	// Len returns the number of indexed entries.
	Len() int
}

// Linear is a brute-force index: it scans all entries. It is the correctness
// oracle the R-tree is property-tested against.
type Linear struct {
	entries []Entry
}

// NewLinear builds a linear index over entries (copied).
func NewLinear(entries []Entry) *Linear {
	l := &Linear{entries: make([]Entry, len(entries))}
	copy(l.entries, entries)
	return l
}

// Search scans all entries.
func (l *Linear) Search(query space.Rect) []chunk.ID {
	var out []chunk.ID
	for _, e := range l.entries {
		if e.MBR.Intersects(query) {
			out = append(out, e.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the entry count.
func (l *Linear) Len() int { return len(l.entries) }
