package main

import (
	"fmt"
	"math"
	"math/rand"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/layout"
	"adr/internal/space"
)

// The farm every workload runs over: four nodes with one disk each, one
// input dataset and the empty 16x16 output raster, all on the paper's
// lon/lat-like [0,360]x[0,180] space.
const (
	nodes        = 4
	outGridX     = 16
	outGridY     = 16
	rasterName   = "raster"
	itemsPerCell = 1000 // target items per input chunk (~27 KB raw)
)

var bounds = space.R(0, 360, 0, 180)

// sizing is everything that scales with -items.
type sizing struct {
	Items        int     `json:"items"`
	GridX        int     `json:"grid_x"`
	GridY        int     `json:"grid_y"`
	CacheBytes   int64   `json:"cache_bytes_per_node"`
	Prefix       int     `json:"traced_prefix"`
	TilePrefix   int     `json:"traced_prefix_tile"`
	SetupRepeats int     `json:"setup_repeats"`
	WarmupSec    float64 `json:"warmup_s"`
}

// sizeFor derives the input grid and the per-node cache budget from the item
// count. The grid keeps ~1000 items per chunk (8e6 items -> 128x64, 2e6 ->
// 64x32); the cache keeps the ISSUE's 3.5:1 data:cache ratio (16 MiB per node
// against 8e6 raw items), so the scans never fit and the hot tile always does.
func sizeFor(items int, quick bool) sizing {
	gy := 4
	for float64(gy)*1.5 < math.Sqrt(float64(items)/(2*itemsPerCell)) {
		gy *= 2
	}
	s := sizing{
		Items: items, GridX: 2 * gy, GridY: gy,
		CacheBytes:   int64(items) * 2,
		Prefix:       64,
		TilePrefix:   512,
		SetupRepeats: 3,
		WarmupSec:    2,
	}
	if quick {
		s.Prefix, s.TilePrefix, s.WarmupSec, s.SetupRepeats = 4, 16, 0.1, 2
	}
	return s
}

// genItems makes one input dataset's items from the seed. "sat" has
// continuous coordinates, half uniform and half concentrated toward the poles
// as emulator.genSAT places its swaths; "wcs" sits on a 0.01-degree lattice
// with small integer readings, the regular mesh the columnar codec is for.
// Values share one backing array so 8e6 items do not mean 8e6 allocations.
func genItems(dataset string, seed int64, n int) []chunk.Item {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(len(dataset))))
	items := make([]chunk.Item, n)
	vals := make([]byte, 8*n)
	for i := range items {
		var x, y float64
		var v int64
		switch dataset {
		case "sat":
			x, y = rng.Float64()*360, rng.Float64()*180
			if i%2 == 1 {
				d := math.Min(math.Abs(rng.NormFloat64())*30, 88)
				if rng.Intn(2) == 0 {
					y = d
				} else {
					y = 180 - d
				}
			}
			v = apps.FixedPoint(rng.NormFloat64() * 100)
		case "wcs":
			x, y = float64(rng.Intn(36000))/100, float64(rng.Intn(18000))/100
			v = apps.FixedPoint(float64(rng.Intn(4096)))
		default:
			panic("bench: unknown dataset " + dataset)
		}
		copy(vals[8*i:], apps.EncodeValue(v))
		items[i] = chunk.Item{Coord: space.Pt(x, y), Value: vals[8*i : 8*i+8 : 8*i+8]}
	}
	return items
}

// loadFarm runs the program's loading pipeline (partition -> placement ->
// move -> index -> manifest) for one input dataset plus the empty output
// raster into dir, which must not hold a farm yet. It is the load half of
// setup_s.
func loadFarm(dir, dataset string, codec chunk.Codec, items []chunk.Item, sz sizing) error {
	farm, err := layout.OpenFarm(dir, nodes, 1)
	if err != nil {
		return err
	}
	defer farm.Close()
	grid, err := space.NewGrid(bounds, sz.GridX, sz.GridY)
	if err != nil {
		return err
	}
	chunks, err := layout.PartitionGrid(items, grid)
	if err != nil {
		return err
	}
	in, err := (&layout.Loader{Farm: farm, Codec: codec}).Load(dataset, space.AttrSpace{Name: dataset + "-space", Bounds: bounds}, chunks)
	if err != nil {
		return err
	}
	og, err := space.NewGrid(bounds, outGridX, outGridY)
	if err != nil {
		return err
	}
	outChunks := make([]*chunk.Chunk, og.NumCells())
	for c := range outChunks {
		outChunks[c] = &chunk.Chunk{Meta: chunk.Meta{MBR: og.CellRect(c)}}
	}
	out, err := (&layout.Loader{Farm: farm}).Load(rasterName, space.AttrSpace{Name: rasterName + "-space", Bounds: bounds}, outChunks)
	if err != nil {
		return err
	}
	if err := layout.SaveManifest(dir, nodes, 1, []*layout.Dataset{in, out}); err != nil {
		return fmt.Errorf("save manifest: %w", err)
	}
	return farm.Close()
}
