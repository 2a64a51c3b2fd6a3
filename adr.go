// Package adr is a Go implementation of the Active Data Repository (ADR):
// an infrastructure that integrates storage, retrieval and processing of
// very large multi-dimensional datasets on parallel machines with disks
// attached to each node, after Kurc, Chang, Ferreira, Sussman and Saltz,
// "Querying Very Large Multi-dimensional Datasets in ADR" (SC 1999).
//
// Datasets hold items addressed by points in a multi-dimensional attribute
// space; queries are range queries (bounding boxes) combined with
// user-defined Initialize / Map / Aggregate / Output functions. The
// repository partitions datasets into chunks, declusters them across a disk
// farm with a Hilbert-curve algorithm, indexes chunk MBRs with an R-tree,
// and executes queries in four pipelined phases (initialization, local
// reduction, global combine, output handling) under one of the paper's
// three workload-partitioning strategies:
//
//   - FRA — fully replicated accumulator: aggregate where input chunks
//     live; replicate every accumulator chunk everywhere.
//   - SRA — sparsely replicated accumulator: replicate only where input
//     chunks project.
//   - DA — distributed accumulator: aggregate where output chunks live;
//     forward input chunks instead.
//   - Hybrid — the graph-partitioned strategy the paper sketches as future
//     work: home each accumulator chunk by input affinity.
//
// # Quickstart
//
//	repo, _ := adr.NewRepository(adr.Options{Nodes: 4})
//	defer repo.Close()
//	repo.LoadDataset("sensor", sensorSpace, chunks)   // partition+decluster+index
//	repo.LoadDataset("raster", rasterSpace, outChunks)
//	res, _ := repo.Execute(ctx, &adr.Query{
//	    Input: "sensor", Output: "raster",
//	    Strategy: adr.DA,
//	    App:      &adr.RasterApp{Op: adr.Max, CellsPerDim: 16},
//	})
//
// The examples/ directory contains complete applications for the paper's
// three motivating workloads; cmd/ contains the distributed deployment
// (adr-load, adr-node, adr-front, adr-query) and the benchmark harness
// (adr-bench) that regenerates the paper's tables and figures.
package adr

import (
	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// Repository is an in-process ADR instance: a parallel back-end of N node
// goroutine groups over the in-process RPC fabric, with one or more
// (in-memory or file-backed) disks per node.
type Repository = core.Repository

// Options configures NewRepository.
type Options = core.Options

// Flow configures forwarding flow control (Options.Flow).
type Flow = rpc.Flow

// Query is a range query plus its user customization.
type Query = core.Query

// Result is a completed query: finished output chunks, the executed plan,
// and per-node metrics.
type Result = core.Result

// NewRepository builds a repository. Repository.Execute runs one query;
// Repository.ExecuteBatch queues several in submission order.
func NewRepository(opts Options) (*Repository, error) { return core.NewRepository(opts) }

// Strategy selects a query-processing strategy (§3 of the paper).
type Strategy = plan.Strategy

// The planning strategies. Auto is not itself a plan: an Auto query is
// costed under every fixed strategy by the trace-calibrated cost model
// (internal/costmodel) and executed under the predicted-fastest one;
// Result.Selection reports the choice.
const (
	FRA    = plan.FRA
	SRA    = plan.SRA
	DA     = plan.DA
	Hybrid = plan.Hybrid
	Auto   = plan.Auto
)

// ParseStrategy parses "FRA", "SRA", "DA", "HYBRID" or "AUTO"
// (case-insensitive).
func ParseStrategy(s string) (Strategy, error) { return plan.ParseStrategy(s) }

// App is the user customization: the Initialize, Aggregate, Combine and
// Output functions of the paper's data aggregation service, plus the
// accumulator codec used to exchange ghost chunks.
type App = engine.App

// Accumulator holds one output chunk's intermediate result.
type Accumulator = engine.Accumulator

// RasterApp is the built-in reference customization: fixed-point values
// reduced per raster cell with a commutative operation. It covers the
// paper's application classes (max composites for satellite data, mean
// compositing for microscopy, sums for contamination grids).
type RasterApp = apps.RasterApp

// Op is RasterApp's per-cell reduction.
type Op = apps.Op

// The raster reductions.
const (
	Sum   = apps.Sum
	Max   = apps.Max
	Min   = apps.Min
	Count = apps.Count
	Mean  = apps.Mean
)

// EncodeValue and DecodeValue convert fixed-point item payloads.
var (
	EncodeValue = apps.EncodeValue
	DecodeValue = apps.DecodeValue
)

// FixedPoint converts a float sample to the raster app's fixed-point value
// space; FromFixedPoint inverts it.
var (
	FixedPoint     = apps.FixedPoint
	FromFixedPoint = apps.FromFixedPoint
)

// Geometry types of the attribute space service.
type (
	// Point is a point in an n-dimensional attribute space.
	Point = space.Point
	// Rect is an axis-aligned box (chunk MBRs and range queries).
	Rect = space.Rect
	// AttrSpace is a registered attribute space.
	AttrSpace = space.AttrSpace
	// Grid partitions an attribute space into regular cells.
	Grid = space.Grid
	// RectMapper projects input-space regions into the output space (the
	// chunk-granularity Map function).
	RectMapper = space.RectMapper
	// RectMapperFunc adapts a function to RectMapper.
	RectMapperFunc = space.RectMapperFunc
	// IdentityMapper maps every region to itself.
	IdentityMapper = space.IdentityMapper
	// AffineMapper maps regions by a per-dimension affine transform and
	// projection.
	AffineMapper = space.AffineMapper
)

// Pt builds a Point from coordinates.
func Pt(coords ...float64) Point { return space.Pt(coords...) }

// R builds a Rect from lo/hi pairs per dimension.
func R(bounds ...float64) Rect { return space.R(bounds...) }

// NewGrid builds a regular grid over bounds with the given per-dimension
// cell counts.
func NewGrid(bounds Rect, cells ...int) (*Grid, error) { return space.NewGrid(bounds, cells...) }

// Data model types of the dataset service.
type (
	// Chunk is the unit of storage, I/O and communication.
	Chunk = chunk.Chunk
	// Item is one data item: a point plus an opaque payload.
	Item = chunk.Item
	// ChunkMeta is a chunk's catalog entry.
	ChunkMeta = chunk.Meta
	// Dataset is a loaded dataset's catalog: chunk metadata plus the
	// spatial index.
	Dataset = layout.Dataset
)

// PartitionGrid groups items into chunks by grid cell — the partitioning
// step of the dataset loading pipeline.
func PartitionGrid(items []Item, g *Grid) ([]*Chunk, error) {
	return layout.PartitionGrid(items, g)
}

// GridChunks builds one empty chunk per cell of a grid: the usual way to
// declare a regular-array output dataset before its first query.
func GridChunks(g *Grid) []*Chunk {
	out := make([]*Chunk, g.NumCells())
	for c := range out {
		out[c] = &Chunk{Meta: ChunkMeta{MBR: g.CellRect(c)}}
	}
	return out
}
