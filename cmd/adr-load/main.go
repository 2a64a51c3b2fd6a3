// Command adr-load runs ADR's dataset loading pipeline (§2.2 of the paper)
// into a farm directory: partition items into chunks, decluster them across
// the per-disk stores with the Hilbert algorithm, write the chunks, build
// the index, and record everything in the farm manifest that the back-end
// node daemons read at startup.
//
// Load a point dataset from CSV (x,y,value per line; value is a float
// converted to the raster apps' fixed-point encoding):
//
//	adr-load -data /srv/adr -nodes 4 -name sensor \
//	         -bounds 0,100,0,100 -grid 16x16 -csv readings.csv
//
// Generate a synthetic point dataset:
//
//	adr-load -data /srv/adr -nodes 4 -name sensor \
//	         -bounds 0,100,0,100 -grid 16x16 -synthetic 100000 -seed 7
//
// Declare a regular-array output dataset (one empty chunk per grid cell):
//
//	adr-load -data /srv/adr -nodes 4 -name composite \
//	         -bounds 0,100,0,100 -grid 8x8 -output
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/layout"
	"adr/internal/space"
)

func main() {
	dataDir := flag.String("data", "", "farm directory (required)")
	nodes := flag.Int("nodes", 1, "back-end node count")
	disks := flag.Int("disks", 1, "disks per node")
	name := flag.String("name", "", "dataset name (required)")
	boundsFlag := flag.String("bounds", "", "attribute space bounds: lox,hix,loy,hiy[,...] (required)")
	gridFlag := flag.String("grid", "8x8", "chunking grid, e.g. 16x16")
	csvPath := flag.String("csv", "", "load points from CSV (x,y,value per line)")
	synthetic := flag.Int("synthetic", 0, "generate N synthetic uniform points")
	seed := flag.Int64("seed", 1, "seed for -synthetic")
	output := flag.Bool("output", false, "declare a regular-array output dataset (empty chunks)")
	replicas := flag.Int("replicas", 1, "copies of each chunk, chained-declustered across disks (1 = unreplicated)")
	compress := flag.String("compress", "none", "store chunks compressed: none or columnar")
	minRatio := flag.Float64("compress-min-ratio", 0, "store raw when compressed/raw exceeds this ratio (0 = default 0.9)")
	flag.Parse()

	if *dataDir == "" || *name == "" || *boundsFlag == "" {
		fatal(fmt.Errorf("-data, -name and -bounds are required"))
	}
	bounds, err := parseBounds(*boundsFlag)
	if err != nil {
		fatal(err)
	}
	gx, gy, err := parseGrid(*gridFlag)
	if err != nil {
		fatal(err)
	}
	if bounds.Dims != 2 {
		fatal(fmt.Errorf("adr-load currently loads 2-D datasets; got %d-D bounds", bounds.Dims))
	}
	grid, err := space.NewGrid(bounds, gx, gy)
	if err != nil {
		fatal(err)
	}

	// Open or create the farm; reconcile with any existing manifest.
	existing, existingDatasets, manifestErr := layout.LoadManifest(*dataDir)
	if manifestErr == nil {
		if existing.Nodes != *nodes || existing.DisksPerNode != *disks {
			fatal(fmt.Errorf("farm at %s has %d nodes x %d disks; flags say %dx%d",
				*dataDir, existing.Nodes, existing.DisksPerNode, *nodes, *disks))
		}
		for _, ds := range existingDatasets {
			if ds.Name == *name {
				fatal(fmt.Errorf("dataset %q already loaded", *name))
			}
		}
	}
	farm, err := layout.OpenFarm(*dataDir, *nodes, *disks)
	if err != nil {
		fatal(err)
	}
	defer farm.Close()

	var chunks []*chunk.Chunk
	switch {
	case *output:
		for c := 0; c < grid.NumCells(); c++ {
			chunks = append(chunks, &chunk.Chunk{Meta: chunk.Meta{MBR: grid.CellRect(c)}})
		}
	case *csvPath != "":
		items, err := readCSV(*csvPath, bounds)
		if err != nil {
			fatal(err)
		}
		chunks, err = layout.PartitionGrid(items, grid)
		if err != nil {
			fatal(err)
		}
	case *synthetic > 0:
		rng := rand.New(rand.NewSource(*seed))
		items := make([]chunk.Item, *synthetic)
		for i := range items {
			items[i] = chunk.Item{
				Coord: space.Pt(
					bounds.Lo[0]+rng.Float64()*(bounds.Hi[0]-bounds.Lo[0]),
					bounds.Lo[1]+rng.Float64()*(bounds.Hi[1]-bounds.Lo[1]),
				),
				Value: apps.EncodeValue(apps.FixedPoint(rng.NormFloat64() * 100)),
			}
		}
		chunks, err = layout.PartitionGrid(items, grid)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("choose one of -csv, -synthetic or -output"))
	}

	codec, err := chunk.ParseCodec(*compress)
	if err != nil {
		fatal(err)
	}
	loader := &layout.Loader{Farm: farm, Replicas: *replicas, Codec: codec, MinRatio: *minRatio}
	sp := space.AttrSpace{Name: *name + "-space", Bounds: bounds}
	ds, err := loader.Load(*name, sp, chunks)
	if err != nil {
		fatal(err)
	}
	all := append(existingDatasets, ds)
	if err := layout.SaveManifest(*dataDir, *nodes, *disks, all); err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %q: %d chunks, %d bytes, %d datasets in manifest\n",
		*name, len(ds.Chunks), ds.TotalBytes(), len(all))
	if codec != chunk.CodecNone {
		stored := ds.StoredTotalBytes()
		logical := ds.TotalBytes()
		if logical > 0 {
			fmt.Printf("compressed (%s): %d bytes on disk, ratio %.3f\n",
				codec, stored, float64(stored)/float64(logical))
		}
	}
}

func parseBounds(s string) (space.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts)%2 != 0 {
		return space.Rect{}, fmt.Errorf("bounds need lo,hi pairs")
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return space.Rect{}, fmt.Errorf("bad bound %q", p)
		}
		vals[i] = v
	}
	for i := 0; i < len(vals); i += 2 {
		if vals[i] >= vals[i+1] {
			return space.Rect{}, fmt.Errorf("bound pair %g,%g not increasing", vals[i], vals[i+1])
		}
	}
	return space.R(vals...), nil
}

func parseGrid(s string) (int, int, error) {
	parts := strings.SplitN(s, "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("grid must look like 16x16")
	}
	gx, err1 := strconv.Atoi(parts[0])
	gy, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || gx < 1 || gy < 1 {
		return 0, 0, fmt.Errorf("bad grid %q", s)
	}
	return gx, gy, nil
}

func readCSV(path string, bounds space.Rect) ([]chunk.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var items []chunk.Item
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%s:%d: want x,y,value", path, line)
		}
		x, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		y, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		v, err3 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s:%d: parse error", path, line)
		}
		p := space.Pt(x, y)
		if !bounds.Contains(p) {
			return nil, fmt.Errorf("%s:%d: point %v outside bounds %v", path, line, p, bounds)
		}
		items = append(items, chunk.Item{Coord: p, Value: apps.EncodeValue(apps.FixedPoint(v))})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("%s: no data", path)
	}
	return items, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adr-load:", err)
	os.Exit(1)
}
