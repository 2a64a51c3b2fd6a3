package layout

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"adr/internal/chunk"
	"adr/internal/decluster"
	"adr/internal/space"
)

func TestMemStoreRoundTrip(t *testing.T) {
	s := newMemStore()
	defer s.Close()
	if _, err := s.Get("d", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on missing chunk = %v, want ErrNotFound", err)
	}
	if err := s.Put("d", 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("d", 0)
	if err != nil || string(got) != "abc" {
		t.Errorf("Get = %q, %v", got, err)
	}
	if err := s.Put("d", 0, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("d", 0)
	if string(got) != "xyz" {
		t.Error("overwrite did not take")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[chunk.ID][]byte{}
	rng := rand.New(rand.NewSource(3))
	for id := chunk.ID(0); id < 50; id++ {
		p := make([]byte, rng.Intn(2000))
		rng.Read(p)
		payloads[id] = p
		if err := s.Put("sat/data", id, p); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range payloads {
		got, err := s.Get("sat/data", id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("chunk %d mismatch (%v)", id, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index is rebuilt by scanning.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id, want := range payloads {
		got, err := s2.Get("sat/data", id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after reopen, chunk %d mismatch (%v)", id, err)
		}
	}
}

// TestFileStoreOverwrite: the newest record for an id wins, and still wins
// after a reopen rebuilds the index by scanning every record.
func TestFileStoreOverwrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		if err := s.Put("d", 1, bytes.Repeat([]byte{byte(v)}, 100+v)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get("d", 1)
	if err != nil || got[0] != 9 || len(got) != 109 {
		t.Fatalf("latest overwrite not returned: %d bytes, %v", len(got), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err = s2.Get("d", 1)
	if err != nil || got[0] != 9 || len(got) != 109 {
		t.Fatalf("after reopen, latest overwrite not returned: %d bytes, %v", len(got), err)
	}
}

func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("d", 0, []byte("complete")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append: write a header promising more bytes than
	// exist.
	path := filepath.Join(dir, "d.dat")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{255, 0, 0, 0, 1, 0, 0, 0, 'x'}) // claims 255 bytes, has 1
	f.Close()

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Get("d", 0)
	if err != nil || string(got) != "complete" {
		t.Fatalf("intact record lost after torn tail: %q %v", got, err)
	}
	if _, err := s2.Get("d", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("torn record read = %v, want ErrNotFound", err)
	}
}

func TestQuickStoresAgree(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := newMemStore()
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		id := chunk.ID(rng.Intn(20))
		p := make([]byte, rng.Intn(500))
		rng.Read(p)
		if fs.Put("q", id, p) != nil || ms.Put("q", id, p) != nil {
			return false
		}
		a, errA := fs.Get("q", id)
		b, errB := ms.Get("q", id)
		return errA == nil && errB == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFarmTopology(t *testing.T) {
	farm, err := NewMemFarm(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	if farm.NumDisks() != 12 {
		t.Errorf("NumDisks = %d", farm.NumDisks())
	}
	cases := map[int]int{0: 0, 2: 0, 3: 1, 11: 3}
	for disk, node := range cases {
		if got := farm.NodeOf(disk); got != node {
			t.Errorf("NodeOf(%d) = %d, want %d", disk, got, node)
		}
	}
	if _, err := farm.Store(12); err == nil {
		t.Error("out-of-range disk should fail")
	}
	if _, err := NewMemFarm(0, 1); err == nil {
		t.Error("0-node farm should fail")
	}
}

func makeItems(n int, seed int64) []chunk.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]chunk.Item, n)
	for i := range items {
		var v [8]byte
		rng.Read(v[:])
		items[i] = chunk.Item{
			Coord: space.Pt(rng.Float64()*32, rng.Float64()*32),
			Value: v[:],
		}
	}
	return items
}

func TestPartitionGrid(t *testing.T) {
	g, _ := space.NewGrid(space.R(0, 32, 0, 32), 4, 4)
	items := makeItems(1000, 5)
	chunks, err := PartitionGrid(items, g)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range chunks {
		total += len(c.Items)
		if err := (&chunk.Chunk{Meta: chunk.Meta{MBR: c.Meta.MBR, Items: int32(len(c.Items))}, Items: c.Items}).Validate(); err != nil {
			t.Fatal(err)
		}
		// All items of a chunk share a grid cell.
		cell, _ := g.CellAt(c.Items[0].Coord)
		for _, it := range c.Items {
			if got, _ := g.CellAt(it.Coord); got != cell {
				t.Fatal("chunk spans multiple grid cells")
			}
		}
	}
	if total != 1000 {
		t.Errorf("partition lost items: %d", total)
	}
	// Out-of-bounds item rejected.
	bad := append(makeItems(1, 6), chunk.Item{Coord: space.Pt(100, 100)})
	if _, err := PartitionGrid(bad, g); err == nil {
		t.Error("out-of-bounds item should fail")
	}
}

func TestLoaderPipeline(t *testing.T) {
	farm, err := NewMemFarm(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	sp := space.AttrSpace{Name: "s", Bounds: space.R(0, 32, 0, 32)}
	g, _ := space.NewGrid(sp.Bounds, 8, 8)
	chunks, err := PartitionGrid(makeItems(3000, 7), g)
	if err != nil {
		t.Fatal(err)
	}
	loader := &Loader{Farm: farm}
	ds, err := loader.Load("pts", sp, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "pts" || len(ds.Chunks) != len(chunks) {
		t.Fatalf("catalog wrong: %d chunks", len(ds.Chunks))
	}
	// Every chunk is stored at its assigned disk, owned by the right node,
	// and decodes back to its items.
	for _, m := range ds.Chunks {
		if farm.NodeOf(int(m.Disk)) != int(m.Node) {
			t.Fatalf("chunk %d: disk %d not on node %d", m.ID, m.Disk, m.Node)
		}
		st, err := farm.Store(int(m.Disk))
		if err != nil {
			t.Fatal(err)
		}
		data, err := st.Get("pts", m.ID)
		if err != nil {
			t.Fatalf("chunk %d unreadable: %v", m.ID, err)
		}
		if int64(len(data)) != m.Bytes {
			t.Fatalf("chunk %d: %d bytes on disk, meta says %d", m.ID, len(data), m.Bytes)
		}
		c, err := chunk.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if c.Meta.ID != m.ID || int32(len(c.Items)) != m.Items {
			t.Fatalf("chunk %d decode mismatch", m.ID)
		}
	}
	// Placement is balanced (Hilbert declustering deals evenly).
	counts := make([]int, farm.NumDisks())
	for _, m := range ds.Chunks {
		counts[m.Disk]++
	}
	_, imb := decluster.Balance(diskAssignment(ds), farm.NumDisks())
	if imb > 1.2 {
		t.Errorf("placement imbalance %.2f (%v)", imb, counts)
	}
	// Index agrees with a full scan.
	q := space.R(4, 12, 4, 12)
	ids := ds.Index.Search(q)
	var want int
	for _, m := range ds.Chunks {
		if m.MBR.Intersects(q) {
			want++
		}
	}
	if len(ids) != want {
		t.Errorf("index found %d chunks, scan found %d", len(ids), want)
	}
	sel := ds.Select(q)
	if len(sel) != want {
		t.Errorf("Select returned %d, want %d", len(sel), want)
	}
}

func diskAssignment(ds *Dataset) []int {
	out := make([]int, len(ds.Chunks))
	for i, m := range ds.Chunks {
		out[i] = int(m.Disk)
	}
	return out
}

func TestLoaderValidation(t *testing.T) {
	farm, _ := NewMemFarm(1, 1)
	defer farm.Close()
	loader := &Loader{Farm: farm}
	sp := space.AttrSpace{Name: "s", Bounds: space.R(0, 1, 0, 1)}
	if _, err := loader.Load("", sp, nil); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := loader.Load("d", space.AttrSpace{}, nil); err == nil {
		t.Error("invalid space should fail")
	}
	empty := []*chunk.Chunk{{}}
	if _, err := loader.Load("d", sp, empty); err == nil {
		t.Error("chunk without MBR or items should fail")
	}
	wrongDims := []*chunk.Chunk{{Meta: chunk.Meta{MBR: space.R(0, 1)}}}
	if _, err := loader.Load("d", sp, wrongDims); err == nil {
		t.Error("dims mismatch should fail")
	}
}
