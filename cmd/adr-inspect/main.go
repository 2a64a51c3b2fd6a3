// Command adr-inspect examines a farm directory: the dataset catalog, the
// per-disk chunk distribution the declustering produced, and per-dataset
// index statistics. It answers the operational questions ADR's dataset and
// indexing services raise — is placement balanced, is the index selective —
// without starting any daemon.
//
//	adr-inspect -data /srv/adr
//	adr-inspect -data /srv/adr -dataset sensor -query 0,50,0,50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"adr/internal/chunk"
	"adr/internal/layout"
	"adr/internal/space"
)

func main() {
	dataDir := flag.String("data", "", "farm directory (required)")
	dataset := flag.String("dataset", "", "inspect one dataset in detail")
	queryFlag := flag.String("query", "", "probe the index: lox,hix,loy,hiy")
	flag.Parse()
	if *dataDir == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	m, datasets, err := layout.LoadManifest(*dataDir)
	if err != nil {
		fatal(err)
	}
	if err := inspect(os.Stdout, *dataDir, m, datasets, *dataset, *queryFlag); err != nil {
		fatal(err)
	}
}

// inspect renders the whole report to w; split from main so tests can run
// it over degenerate farms and assert the output stays finite.
func inspect(w io.Writer, dataDir string, m *layout.Manifest, datasets []*layout.Dataset, only, queryFlag string) error {
	fmt.Fprintf(w, "farm %s: %d nodes x %d disks, %d datasets\n\n",
		dataDir, m.Nodes, m.DisksPerNode, len(datasets))

	for _, ds := range datasets {
		if only != "" && ds.Name != only {
			continue
		}
		describe(w, ds, m.Nodes*m.DisksPerNode)
		if queryFlag != "" {
			if err := probe(w, ds, queryFlag); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func describe(w io.Writer, ds *layout.Dataset, ndisks int) {
	fmt.Fprintf(w, "dataset %q: space %q %v\n", ds.Name, ds.Space.Name, ds.Space.Bounds)
	var bytes int64
	var stored int64
	var compressed int
	var items int64
	perDisk := make([]int64, ndisks)
	perNode := map[int32]int64{}
	for _, c := range ds.Chunks {
		bytes += c.Bytes
		stored += c.StoredOrRaw()
		if c.StoredBytes > 0 {
			compressed++
		}
		items += int64(c.Items)
		if int(c.Disk) < ndisks {
			perDisk[c.Disk] += c.Bytes
		}
		perNode[c.Node] += c.Bytes
	}
	fmt.Fprintf(w, "  %d chunks, %d items, %.2f MB\n", len(ds.Chunks), items, float64(bytes)/1e6)
	switch {
	case ds.Codec == chunk.CodecNone:
		// Raw layout: nothing to report.
	case bytes > 0:
		fmt.Fprintf(w, "  compression (%s): %.2f MB on disk vs %.2f MB logical, ratio %.3f (%d/%d chunks compressed)\n",
			ds.Codec, float64(stored)/1e6, float64(bytes)/1e6,
			float64(stored)/float64(bytes), compressed, len(ds.Chunks))
	default:
		// A codec with no logical bytes (empty dataset, or every chunk
		// empty) has no meaningful ratio — say so instead of printing NaN.
		fmt.Fprintf(w, "  compression (%s): no payload bytes, ratio not meaningful\n", ds.Codec)
	}

	// Placement balance.
	var maxDisk, minDisk int64 = 0, 1 << 62
	used := 0
	for _, b := range perDisk {
		if b > 0 {
			used++
		}
		if b > maxDisk {
			maxDisk = b
		}
		if b < minDisk {
			minDisk = b
		}
	}
	switch {
	case used > 0 && bytes > 0:
		mean := float64(bytes) / float64(used)
		fmt.Fprintf(w, "  placement: %d/%d disks used, per-disk %.2f-%.2f MB (max/mean %.2f)\n",
			used, ndisks, float64(minDisk)/1e6, float64(maxDisk)/1e6, float64(maxDisk)/mean)
	case len(ds.Chunks) == 0:
		fmt.Fprintf(w, "  placement: empty dataset, 0/%d disks used\n", ndisks)
	default:
		// Chunks exist but none carry bytes on a tracked disk: a balance
		// ratio would divide by zero, so report the shape without one.
		fmt.Fprintf(w, "  placement: %d chunks carry no payload bytes, 0/%d disks used\n",
			len(ds.Chunks), ndisks)
	}
	fmt.Fprintf(w, "  index: %d entries\n", ds.Index.Len())
}

func probe(w io.Writer, ds *layout.Dataset, queryFlag string) error {
	vals, err := space.ParseBox(queryFlag)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	box := space.R(vals...)
	sel := ds.Select(box)
	var bytes int64
	disks := map[int32]bool{}
	for _, c := range sel {
		bytes += c.Bytes
		disks[c.Disk] = true
	}
	fmt.Fprintf(w, "  query %v: %d chunks, %.2f MB across %d disks (%.0f%% of dataset)\n",
		box, len(sel), float64(bytes)/1e6, len(disks),
		100*float64(len(sel))/float64(max(1, len(ds.Chunks))))
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adr-inspect:", err)
	os.Exit(1)
}
