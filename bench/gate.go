package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/space"
)

// catalog is the benchmark's own read-only view of the farm directory the
// stack serves: the datasets rebuilt from the manifest and an uncached farm
// handle. The oracle and the layer replay run on it.
type catalog struct {
	dir     string
	farm    *layout.Farm
	in, out *layout.Dataset
	machine plan.Machine
}

func openCatalog(dir, dataset string) (*catalog, error) {
	m, datasets, err := layout.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	c := &catalog{dir: dir, machine: plan.Machine{Procs: m.Nodes, AccMemBytes: core.DefaultAccMemBytes}}
	for _, ds := range datasets {
		switch ds.Name {
		case dataset:
			c.in = ds
		case rasterName:
			c.out = ds
		}
	}
	if c.in == nil || c.out == nil {
		return nil, fmt.Errorf("farm %s lacks %q or %q", dir, dataset, rasterName)
	}
	c.farm, err = layout.OpenFarm(dir, m.Nodes, m.DisksPerNode)
	return c, err
}

func (c *catalog) Close() { c.farm.Close() }

// serialConfig assembles the engine configuration the daemons derive for
// query i, for the benchmark's own runs (oracle, in-process engine). AUTO
// plans as FRA: every strategy yields the same output, and RunSerial only
// needs a valid plan.
func (c *catalog) serialConfig(w *workload, seed int64, i int) (engine.Config, error) {
	spec := w.spec(seed, i)
	box := w.box(seed, i)
	wl, err := core.BuildWorkload(c.in, c.out, box, box, space.IdentityMapper{})
	if err != nil {
		return engine.Config{}, err
	}
	strategy := plan.FRA
	if !spec.IsAuto() {
		if strategy, err = spec.ParseStrategy(); err != nil {
			return engine.Config{}, err
		}
	}
	planner, err := plan.NewPlanner(c.machine)
	if err != nil {
		return engine.Config{}, err
	}
	p, err := planner.Plan(strategy, wl)
	if err != nil {
		return engine.Config{}, err
	}
	app, err := spec.App.Build()
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Plan: p, Workload: wl, App: app,
		InputDataset: spec.Input, OutputDataset: spec.Output, ResultDataset: spec.ResultDataset,
	}, nil
}

// gate runs the first n queries of the workload's sequence through the live
// stack and requires every returned chunk to be bit-identical — id, dataset,
// MBR, item coordinates, item values — to engine.RunSerial over the same
// farm. For write-back queries it also reads the result dataset back from
// the farm and requires the same bytes there.
func gate(cat *catalog, cl *frontend.Client, w *workload, seed int64, n int) error {
	for i := 0; i < n; i++ {
		got, stats, err := cl.Query(w.spec(seed, i))
		if err != nil {
			return fmt.Errorf("gate query %d: %w", i, err)
		}
		cfg, err := cat.serialConfig(w, seed, i)
		if err != nil {
			return fmt.Errorf("gate query %d: %w", i, err)
		}
		want, err := engine.RunSerial(cfg.WithSerialStorage(engine.FarmStorage{Farm: cat.farm}))
		if err != nil {
			return fmt.Errorf("gate query %d: serial oracle: %w", i, err)
		}
		if stats == nil || stats.Chunks != len(got) {
			return fmt.Errorf("gate query %d: done frame counts %v chunks, stream carried %d", i, stats, len(got))
		}
		streamed := make([]*chunk.Chunk, len(got))
		for j, cj := range got {
			if streamed[j], err = frontend.FromChunkJSON(cj); err != nil {
				return fmt.Errorf("gate query %d: %w", i, err)
			}
		}
		if err := sameChunks(want, streamed); err != nil {
			return fmt.Errorf("gate query %d (%s): stack vs serial: %w", i, w.Name, err)
		}
		if !w.writesBack(i) {
			continue
		}
		stored, err := cat.readBack(cfg.Workload.Outputs)
		if err != nil {
			return fmt.Errorf("gate query %d: read back: %w", i, err)
		}
		if err := sameChunks(want, stored); err != nil {
			return fmt.Errorf("gate query %d (%s): farm read-back vs serial: %w", i, w.Name, err)
		}
	}
	return nil
}

// readBack reads the write-back dataset's copies of the given output chunks
// through a fresh farm handle: FileStore indexes a segment once, on first
// use, and the nodes have appended since any earlier open.
func (c *catalog) readBack(outputs []chunk.Meta) ([]*chunk.Chunk, error) {
	farm, err := layout.OpenFarm(c.dir, c.farm.Nodes, c.farm.DisksPerNode)
	if err != nil {
		return nil, err
	}
	defer farm.Close()
	st := engine.FarmStorage{Farm: farm}
	stored := make([]*chunk.Chunk, len(outputs))
	for k, m := range outputs {
		data, err := st.ReadChunk(writeBackDataset, m)
		if err != nil {
			return nil, err
		}
		if stored[k], err = chunk.DecodeAny(data); err != nil {
			return nil, fmt.Errorf("output %d: %w", m.ID, err)
		}
	}
	return stored, nil
}

// sameChunks compares two chunk sets bit for bit, ignoring order of chunks
// (nodes stream concurrently) but not of items.
func sameChunks(want, got []*chunk.Chunk) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d chunks, want %d", len(got), len(want))
	}
	byID := func(s []*chunk.Chunk) {
		sort.Slice(s, func(a, b int) bool { return s[a].Meta.ID < s[b].Meta.ID })
	}
	byID(want)
	byID(got)
	for k := range want {
		a, b := want[k], got[k]
		if a.Meta.ID != b.Meta.ID || a.Meta.Dataset != b.Meta.Dataset {
			return fmt.Errorf("chunk %d: got %s/%d, want %s/%d", k, b.Meta.Dataset, b.Meta.ID, a.Meta.Dataset, a.Meta.ID)
		}
		if !a.Meta.MBR.Equal(b.Meta.MBR) {
			return fmt.Errorf("chunk %d: MBR %v, want %v", a.Meta.ID, b.Meta.MBR, a.Meta.MBR)
		}
		if len(a.Items) != len(b.Items) {
			return fmt.Errorf("chunk %d: %d items, want %d", a.Meta.ID, len(b.Items), len(a.Items))
		}
		for j := range a.Items {
			x, y := a.Items[j], b.Items[j]
			if x.Coord.Dims != y.Coord.Dims || !bytes.Equal(x.Value, y.Value) {
				return fmt.Errorf("chunk %d item %d differs", a.Meta.ID, j)
			}
			for d := 0; d < x.Coord.Dims; d++ {
				if math.Float64bits(x.Coord.Coords[d]) != math.Float64bits(y.Coord.Coords[d]) {
					return fmt.Errorf("chunk %d item %d coord %d: %v, want %v", a.Meta.ID, j, d, y.Coord.Coords[d], x.Coord.Coords[d])
				}
			}
		}
	}
	return nil
}
