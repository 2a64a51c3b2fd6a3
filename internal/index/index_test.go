package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adr/internal/chunk"
	"adr/internal/space"
)

// randEntries produces n random small rectangles in [0,100]^dims.
func randEntries(rng *rand.Rand, n, dims int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		var bounds []float64
		for d := 0; d < dims; d++ {
			lo := rng.Float64() * 95
			bounds = append(bounds, lo, lo+rng.Float64()*5)
		}
		entries[i] = Entry{MBR: space.R(bounds...), ID: chunk.ID(i)}
	}
	return entries
}

func randQuery(rng *rand.Rand, dims int) space.Rect {
	var bounds []float64
	for d := 0; d < dims; d++ {
		lo := rng.Float64() * 80
		bounds = append(bounds, lo, lo+rng.Float64()*30)
	}
	return space.R(bounds...)
}

func sameIDs(a, b []chunk.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLinearSearch(t *testing.T) {
	entries := []Entry{
		{MBR: space.R(0, 1, 0, 1), ID: 0},
		{MBR: space.R(2, 3, 2, 3), ID: 1},
		{MBR: space.R(0.5, 2.5, 0.5, 2.5), ID: 2},
	}
	l := NewLinear(entries)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	got := l.Search(space.R(0, 1, 0, 1))
	if !sameIDs(got, []chunk.ID{0, 2}) {
		t.Errorf("Search = %v", got)
	}
	if got := l.Search(space.R(10, 11, 10, 11)); got != nil {
		t.Errorf("empty query = %v", got)
	}
}

// height returns the number of levels in the tree (0 for an empty tree).
func (t *RTree) height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}

// validate checks the structural invariants of a bulk-loaded tree: every
// node's MBR contains its children's, and no node exceeds the fanout.
func (t *RTree) validate() bool {
	if t.root == nil {
		return true
	}
	var walk func(n *rnode) bool
	walk = func(n *rnode) bool {
		if n.leaf {
			for _, e := range n.entries {
				if !n.mbr.ContainsRect(e.MBR) {
					return false
				}
			}
			return len(n.entries) <= t.fanout
		}
		for _, c := range n.children {
			if !n.mbr.ContainsRect(c.mbr) || !walk(c) {
				return false
			}
		}
		return len(n.children) <= t.fanout
	}
	return walk(t.root)
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil, 0)
	if tr.Len() != 0 || tr.height() != 0 {
		t.Errorf("empty tree Len=%d Height=%d", tr.Len(), tr.height())
	}
	if got := tr.Search(space.R(0, 1)); got != nil {
		t.Errorf("empty tree Search = %v", got)
	}
}

func TestBulkLoadStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := randEntries(rng, 1000, 2)
	tr := BulkLoad(entries, 8)
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.validate() {
		t.Fatal("tree invariants violated after bulk load")
	}
	// 1000 entries at fanout 8: leaves=125, level2=16, level3=2, root -> 4 levels.
	if h := tr.height(); h != 4 {
		t.Errorf("Height = %d, want 4", h)
	}
}

func TestRTreeMatchesLinear(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(int64(100 + dims)))
		entries := randEntries(rng, 500, dims)
		tr := BulkLoad(entries, 16)
		lin := NewLinear(entries)
		for q := 0; q < 100; q++ {
			query := randQuery(rng, dims)
			got, want := tr.Search(query), lin.Search(query)
			if !sameIDs(got, want) {
				t.Fatalf("dims=%d query %v: rtree %v, linear %v", dims, query, got, want)
			}
		}
	}
}

func TestQuickRTreeMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	entries := randEntries(rng, 300, 2)
	tr := BulkLoad(entries, 10)
	lin := NewLinear(entries)
	f := func() bool {
		q := randQuery(rng, 2)
		return sameIDs(tr.Search(q), lin.Search(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSearchCoversWholeSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	entries := randEntries(rng, 250, 2)
	tr := BulkLoad(entries, 16)
	got := tr.Search(space.R(-1000, 1000, -1000, 1000))
	if len(got) != 250 {
		t.Errorf("whole-space query returned %d of 250", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("results not in ascending ID order")
		}
	}
}

func BenchmarkRTreeSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := randEntries(rng, 100000, 2)
	tr := BulkLoad(entries, defaultFanout)
	queries := make([]space.Rect, 64)
	for i := range queries {
		queries[i] = randQuery(rng, 2)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Search(queries[i%len(queries)])
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	entries := randEntries(rng, 50000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(entries, defaultFanout)
	}
}
