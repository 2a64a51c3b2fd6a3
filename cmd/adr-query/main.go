// Command adr-query submits a range query to an ADR front-end and prints
// the result cells (x,y,value CSV on stdout) plus execution statistics on
// stderr.
//
//	adr-query -front localhost:7000 -input sensor -output composite \
//	          -strategy DA -op max -cells 16 \
//	          -output-box 0,50,0,50 > composite.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"adr/internal/apps"
	"adr/internal/frontend"
	"adr/internal/space"
)

func main() {
	front := flag.String("front", "localhost:7000", "front-end address")
	input := flag.String("input", "", "input dataset (required)")
	output := flag.String("output", "", "output dataset (required)")
	strategy := flag.String("strategy", "FRA", "FRA | SRA | DA | HYBRID | AUTO (cost-model selection; case-insensitive)")
	op := flag.String("op", "sum", "sum | max | min | count | mean")
	cells := flag.Int("cells", 8, "raster cells per output chunk dimension")
	inBox := flag.String("input-box", "", "input range query: lox,hix,loy,hiy")
	outBox := flag.String("output-box", "", "output range query: lox,hix,loy,hiy")
	result := flag.String("result", "", "also store results back as this dataset")
	useExisting := flag.Bool("use-existing", false, "seed accumulators from the existing output dataset")
	busyRetries := flag.Int("busy-retries", 0, "resubmissions after a retryable failure (busy node, a back-end node's death); 0 uses the default 3, negative disables")
	flag.Parse()

	if *input == "" || *output == "" {
		fmt.Fprintln(os.Stderr, "adr-query: -input and -output are required")
		os.Exit(2)
	}
	spec := &frontend.QuerySpec{
		Input:         *input,
		Output:        *output,
		Strategy:      *strategy,
		ResultDataset: *result,
		App: frontend.AppSpec{
			Kind: "raster", Op: *op, CellsPerDim: *cells, UseExisting: *useExisting,
		},
	}
	var err error
	if spec.InputBox, err = parseBox(*inBox); err != nil {
		fatal(err)
	}
	if spec.OutputBox, err = parseBox(*outBox); err != nil {
		fatal(err)
	}

	client, err := frontend.Dial(*front)
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	client.BusyRetries = *busyRetries

	chunks, stats, err := client.Query(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Println("# x,y,value")
	cellsOut := 0
	for _, c := range chunks {
		for _, it := range c.Items {
			v, err := apps.DecodeValue(it.Value)
			if err != nil {
				fatal(err)
			}
			// Count cells hold raw tallies; every other op is in the raster
			// apps' fixed-point value space.
			if *op == "count" {
				fmt.Printf("%g,%g,%d\n", it.Coords[0], it.Coords[1], v)
			} else {
				fmt.Printf("%g,%g,%g\n", it.Coords[0], it.Coords[1], apps.FromFixedPoint(v))
			}
			cellsOut++
		}
	}
	fmt.Fprintf(os.Stderr,
		"adr-query: %d chunks, %d cells; read %.1f MB, comm %.1f MB, %d agg ops, %d ms\n",
		stats.Chunks, cellsOut,
		float64(stats.BytesRead)/1e6,
		float64(stats.BytesSent+stats.BytesRecv)/1e6,
		stats.AggOps, stats.ElapsedMS)
	if sel := stats.Selection; sel != nil {
		fmt.Fprintf(os.Stderr, "adr-query: auto selected %s (predicted %.3fs, actual %.3fs, node %d's calibration)\n",
			sel.Strategy, sel.PredictedSec, sel.ActualSec, sel.Node)
		for _, e := range sel.Estimates {
			fmt.Fprintf(os.Stderr, "adr-query:   %-6s predicted %.3fs (comm %.1f MB, %d tiles)\n",
				e.Strategy, e.PredictedSec, float64(e.CommBytes)/1e6, e.Tiles)
		}
	}
}

// parseBox parses a -input-box/-output-box flag; empty selects the whole
// dataset.
func parseBox(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	return space.ParseBox(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adr-query:", err)
	os.Exit(1)
}
