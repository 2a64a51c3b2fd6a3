package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/layout"
	"adr/internal/space"
)

// TestBuildWorkloadTargetsBruteForce holds BuildWorkload's index search
// against a brute-force scan: on random input and output boxes, over a grid
// and an irregular output dataset and under two mappers, every input whose
// MBR meets the input box keeps exactly the selected outputs its mapped MBR
// intersects, ascending, and an input with none is dropped.
func TestBuildWorkloadTargetsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	farm, err := layout.NewMemFarm(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	loader := &layout.Loader{Farm: farm}
	bounds := space.R(0, 100, 0, 100)
	randBox := func(maxSide float64) space.Rect {
		w, h := rng.Float64()*maxSide, rng.Float64()*maxSide
		x, y := rng.Float64()*(100-w), rng.Float64()*(100-h)
		return space.R(x, x+w, y, y+h)
	}
	load := func(name string, mbrs []space.Rect) *layout.Dataset {
		chunks := make([]*chunk.Chunk, len(mbrs))
		for i, r := range mbrs {
			chunks[i] = &chunk.Chunk{Meta: chunk.Meta{MBR: r}}
		}
		ds, err := loader.Load(name, space.AttrSpace{Name: name, Bounds: bounds}, chunks)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	var inMBRs, irregular []space.Rect
	for i := 0; i < 150; i++ {
		inMBRs = append(inMBRs, randBox(15))
		irregular = append(irregular, randBox(25))
	}
	g, err := space.NewGrid(bounds, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	var cells []space.Rect
	for c := 0; c < g.NumCells(); c++ {
		cells = append(cells, g.CellRect(c))
	}
	in := load("in", inMBRs)
	outs := []*layout.Dataset{load("grid", cells), load("irregular", irregular)}
	mappers := map[string]space.RectMapper{
		"identity": space.IdentityMapper{},
		"half": space.RectMapperFunc(func(r space.Rect) space.Rect {
			return space.R(r.Lo[0]/2, r.Hi[0]/2, 50+r.Lo[1]/2, 50+r.Hi[1]/2)
		}),
	}

	for _, out := range outs {
		for name, mapper := range mappers {
			for trial := 0; trial < 100; trial++ {
				inBox, outBox := randBox(80), randBox(80)
				w, err := core.BuildWorkload(in, out, inBox, outBox, mapper)
				if err != nil {
					t.Fatal(err)
				}
				got := map[chunk.ID][]int32{}
				for i, im := range w.Inputs {
					got[im.ID] = w.Targets[i]
				}
				for _, im := range in.Chunks {
					if !im.MBR.Intersects(inBox) {
						continue
					}
					var want []int32
					for o, om := range w.Outputs {
						if mapper.MapRect(im.MBR).Intersects(om.MBR) {
							want = append(want, int32(o))
						}
					}
					if ts, ok := got[im.ID]; !slices.Equal(ts, want) || ok != (len(want) > 0) {
						t.Fatalf("%s/%s trial %d: input %d targets %v (kept %v), brute force %v",
							out.Name, name, trial, im.ID, ts, ok, want)
					}
					delete(got, im.ID)
				}
				if len(got) > 0 {
					t.Fatalf("%s/%s trial %d: %d inputs outside the input box kept", out.Name, name, trial, len(got))
				}
				for _, om := range w.Outputs {
					if !om.MBR.Intersects(outBox) {
						t.Fatalf("%s/%s trial %d: output %d outside the output box selected", out.Name, name, trial, om.ID)
					}
				}
			}
		}
	}
}
