package frontend

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/engine"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

func TestAppSpecBuild(t *testing.T) {
	for _, op := range []string{"sum", "max", "min", "count", "mean"} {
		app, err := AppSpec{Kind: "raster", Op: op, CellsPerDim: 4}.Build()
		if err != nil {
			t.Errorf("op %s: %v", op, err)
		}
		if _, ok := app.(*apps.RasterApp); !ok {
			t.Errorf("op %s: built %T", op, app)
		}
	}
	if _, err := (AppSpec{Op: "bogus"}).Build(); err == nil {
		t.Error("bogus op should fail")
	}
	if _, err := (AppSpec{Kind: "tensor", Op: "sum"}).Build(); err == nil {
		t.Error("unknown kind should fail")
	}
	// Default cells.
	app, err := AppSpec{Op: "sum"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if app.(*apps.RasterApp).CellsPerDim != 8 {
		t.Error("default cells not applied")
	}
	// UseExisting propagates to InitRequiresOutput.
	app, err = AppSpec{Op: "sum", UseExisting: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !app.InitRequiresOutput() {
		t.Error("UseExisting not propagated")
	}
	var _ engine.App = app
}

// TestAppSpecCellsBound: a raster whose worst-case ghost accumulator
// (apps.MaxAccumBytes, a fully populated raster) could not travel in one
// mesh frame is refused at Build, naming the value and the limit, 2 047.
// Past the limit, 3 037 000 500 cells per dimension overflow c*c (a
// makeslice panic on every node the spec reaches) and 10^5 ask each node
// for 160 GB.
func TestAppSpecCellsBound(t *testing.T) {
	const limit = 2047
	if _, err := (AppSpec{Op: "sum", CellsPerDim: limit}).Build(); err != nil {
		t.Fatalf("%d cells per dimension: %v", limit, err)
	}
	if apps.MaxAccumBytes(limit) > rpc.MaxFrameBytes || apps.MaxAccumBytes(limit+1) <= rpc.MaxFrameBytes {
		t.Errorf("limit %d is not the largest c whose worst case fits in %d bytes", limit, rpc.MaxFrameBytes)
	}
	// The bound is EncodeAccum's length for a fully populated raster; an
	// untouched one is the 8-byte header alone.
	out := chunk.Meta{MBR: space.R(0, 1, 0, 1)}
	small := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 3}
	empty, err := small.Init(out, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if enc, err := small.EncodeAccum(empty, out); err != nil || len(enc) != 8 {
		t.Errorf("empty 3x3 accumulator encodes to %d bytes (%v), want 8", len(enc), err)
	}
	full, _ := small.Init(out, nil, true)
	var pts []chunk.Item
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			pts = append(pts, chunk.Item{Coord: space.Pt((float64(x)+0.5)/3, (float64(y)+0.5)/3), Value: apps.EncodeValue(-1)})
		}
	}
	if err := small.Aggregate(full, out, &chunk.Chunk{Items: pts}); err != nil {
		t.Fatal(err)
	}
	if enc, err := small.EncodeAccum(full, out); err != nil || int64(len(enc)) != apps.MaxAccumBytes(3) {
		t.Errorf("full 3x3 accumulator encodes to %d bytes (%v), want %d", len(enc), err, apps.MaxAccumBytes(3))
	}
	for _, cells := range []int{limit + 1, 100_000, 3_037_000_500} {
		_, err := AppSpec{Op: "sum", CellsPerDim: cells}.Build()
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(cells)) || !strings.Contains(err.Error(), strconv.Itoa(limit)) {
			t.Errorf("%d cells per dimension: err %v, want a refusal naming %d and the limit %d", cells, err, cells, limit)
		}
	}
}

func TestParseBox(t *testing.T) {
	r, err := ParseBox(nil)
	if err != nil || !r.IsEmpty() {
		t.Errorf("empty box = %v, %v", r, err)
	}
	r, err = ParseBox([]float64{0, 10, -5, 5})
	if err != nil || !r.Equal(space.R(0, 10, -5, 5)) {
		t.Errorf("box = %v, %v", r, err)
	}
	if _, err := ParseBox([]float64{0, 10, 5}); err == nil {
		t.Error("odd arity should fail")
	}
	if _, err := ParseBox([]float64{10, 0}); err == nil {
		t.Error("inverted bounds should fail")
	}
	if _, err := ParseBox(make([]float64, 2*space.MaxDims+2)); err == nil {
		t.Error("too many dims should fail")
	}
}

func TestParseStrategyDefault(t *testing.T) {
	q := &QuerySpec{}
	s, err := q.ParseStrategy()
	if err != nil || s != plan.FRA {
		t.Errorf("default strategy = %v, %v", s, err)
	}
	q.Strategy = "DA"
	if s, _ := q.ParseStrategy(); s != plan.DA {
		t.Errorf("DA parsed as %v", s)
	}
	q.Strategy = "nope"
	if _, err := q.ParseStrategy(); err == nil {
		t.Error("bad strategy should fail")
	}
}

func TestChunkJSONRoundTrip(t *testing.T) {
	c := &chunk.Chunk{
		Meta: chunk.Meta{ID: 7, Dataset: "d", MBR: space.R(0, 4, -2, 2)},
		Items: []chunk.Item{
			{Coord: space.Pt(1, 1), Value: apps.EncodeValue(42)},
			{Coord: space.Pt(3, -1), Value: apps.EncodeValue(-9)},
		},
	}
	cj := ToChunkJSON(c)
	back, err := FromChunkJSON(cj)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.ID != 7 || back.Meta.Dataset != "d" || !back.Meta.MBR.Equal(c.Meta.MBR) {
		t.Errorf("meta mismatch: %+v", back.Meta)
	}
	if len(back.Items) != 2 {
		t.Fatalf("items = %d", len(back.Items))
	}
	for i := range back.Items {
		if !back.Items[i].Coord.Equal(c.Items[i].Coord) ||
			!bytes.Equal(back.Items[i].Value, c.Items[i].Value) {
			t.Errorf("item %d mismatch", i)
		}
	}
	if _, err := FromChunkJSON(&ChunkJSON{ID: 1}); err == nil {
		t.Error("chunk without bounds should fail")
	}
}

func TestJSONFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: "chunk", Chunk: &ChunkJSON{ID: 1, Lo: []float64{0}, Hi: []float64{1}}},
		{Type: "done", Stats: &DoneStats{Node: 2, Chunks: 5}},
		{Type: "error", Error: "boom"},
	}
	for i := range msgs {
		if err := WriteJSON(&buf, &msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i := range msgs {
		var got Message
		if err := ReadJSON(r, &got); err != nil {
			t.Fatal(err)
		}
		if got.Type != msgs[i].Type {
			t.Errorf("frame %d: type %q, want %q", i, got.Type, msgs[i].Type)
		}
	}
	if err := ReadJSON(r, &Message{}); err == nil {
		t.Error("EOF should error")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	r := bufio.NewReader(bytes.NewBufferString("not json\n"))
	var m Message
	if err := ReadJSON(r, &m); err == nil {
		t.Error("garbage should fail")
	}
}
