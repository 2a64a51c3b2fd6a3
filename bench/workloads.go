package main

import (
	"hash/fnv"
	"math"

	"adr/internal/chunk"
	"adr/internal/frontend"
	"adr/internal/space"
)

// workload is one closed-loop traffic mix. Every query is a box drawn from
// (seed, workload, query index), so a sequence can be replayed from any
// index by any client, and the program under test only ever sees the
// generated specs.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Dataset is the input dataset; LoadCodec is how the farm stores it.
	Dataset   string
	LoadCodec chunk.Codec
	Strategy  string
	// SpecCodec is the wire codec the query spec names ("" = node default).
	SpecCodec string
	Cells     int
	// Frac is the box area as a fraction of the whole space; boxes keep the
	// space's 2:1 aspect and are placed uniformly inside Window.
	Frac    float64
	Window  space.Rect
	Clients int
	// WriteBackEvery > 0 makes every n-th query also write its result to the
	// farm as dataset "composite".
	WriteBackEvery int
	// LongPrefix selects the 512-query traced prefix (the workload's queries
	// are two orders of magnitude cheaper than the scans').
	LongPrefix bool
}

const writeBackDataset = "composite"

var workloads = []workload{
	{
		Name: "sat_scan", Why: "10% FRA scans over a raw dataset 3.5x the cache: store read, decode, aggregate and ghost combine do the work",
		Dataset: "sat", Strategy: "FRA", Cells: 16, Frac: 0.10, Window: bounds, Clients: 2,
	},
	{
		Name: "wcs_forward_z", Why: "5% DA scans over a columnar-compressed lattice: every chunk is inflated and most are forwarded over the TCP mesh",
		Dataset: "wcs", LoadCodec: chunk.CodecColumnar, Strategy: "DA", SpecCodec: "columnar", Cells: 16, Frac: 0.05, Window: bounds, Clients: 2,
	},
	{
		Name: "vm_tile_hot", Why: "0.05% AUTO tiles inside a cache-resident 1/64 window, one client: fixed per-query cost (relay, estimate, planning) dominates",
		Dataset: "sat", Strategy: "AUTO", Cells: 32, Frac: 0.0005, Window: space.R(90, 135, 67.5, 90), Clients: 1, LongPrefix: true,
	},
	{
		Name: "vm_output_wb", Why: "1% SRA boxes at 128 cells per dim, every 8th written back: output, result framing and client decode dominate, Put runs beside Get",
		Dataset: "sat", Strategy: "SRA", Cells: 128, Frac: 0.01, Window: bounds, Clients: 2, WriteBackEvery: 8,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// unit is a stateless uniform draw in [0,1) for (seed, stream, index, k):
// splitmix64 over the mixed inputs. Clients pull query indices from a shared
// counter, so the sequence must not depend on who draws it.
func unit(seed int64, stream, i, k uint64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + i*0x94D049BB133111EB + k*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// box returns query i's range.
func (w *workload) box(seed int64, i int) space.Rect {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	stream := h.Sum64()
	side := math.Sqrt(w.Frac)
	bw, bh := 360*side, 180*side
	x := w.Window.Lo[0] + unit(seed, stream, uint64(i), 0)*(w.Window.Hi[0]-w.Window.Lo[0]-bw)
	y := w.Window.Lo[1] + unit(seed, stream, uint64(i), 1)*(w.Window.Hi[1]-w.Window.Lo[1]-bh)
	return space.R(x, x+bw, y, y+bh)
}

// writesBack reports whether query i also writes its result to the farm.
func (w *workload) writesBack(i int) bool {
	return w.WriteBackEvery > 0 && i%w.WriteBackEvery == w.WriteBackEvery-1
}

// spec returns query i as the client submits it.
func (w *workload) spec(seed int64, i int) *frontend.QuerySpec {
	b := w.box(seed, i)
	flat := []float64{b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1]}
	s := &frontend.QuerySpec{
		Input: w.Dataset, Output: rasterName,
		InputBox: flat, OutputBox: flat,
		Strategy: w.Strategy, Codec: w.SpecCodec,
		App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: w.Cells},
	}
	if w.writesBack(i) {
		s.ResultDataset = writeBackDataset
	}
	return s
}

func (w *workload) prefix(sz sizing) int {
	if w.LongPrefix {
		return sz.TilePrefix
	}
	return sz.Prefix
}
