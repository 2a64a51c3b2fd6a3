// Command bench is the repository's live-stack benchmark. One run generates
// an input dataset from a seed, loads a real FileStore farm in a temporary
// directory, starts a four-node backend TCP mesh and a front-end in-process
// on loopback sockets, verifies the stack's results bit for bit against
// engine.RunSerial, and drives one of four named closed-loop workloads
// through frontend.Dial(...).Query. The timed pass (-trace 0) reports the
// end-to-end metrics a client sees; the traced pass (-trace 1) reports the
// per-layer metrics: the protocol's own per-node traces plus a serial replay
// of every layer's exported functions under in-memory spans. BENCHMARK.json
// at the repository root names every workload and metric; README.md in this
// directory explains them. Everything is measured from outside the program:
// the benchmark changes no file of the system under test.
//
// Run one workload as the driver does:
//
//	bash bench/run.sh --workload sat_scan --seed 1 --seconds 20 --trace 0
//
// or every workload, both passes, with no -workload flag. -compare a.json
// b.json judges two sets of result files against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams injected, so the smoke test drives the same
// code path as the command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only and end with the driver's one-line JSON result (default: all workloads, both passes)")
	seed := fs.Int64("seed", 1, "seed for the dataset and every query sequence")
	seconds := fs.Float64("seconds", 20, "length of the measured closed loop")
	trace := fs.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	items := fs.Int("items", 2_000_000, "items in the input dataset (the ISSUE's paper-scale size is 8000000)")
	quick := fs.Bool("quick", false, "smoke-test size: 20000 items, 0.5 s loops, short traced prefixes")
	compare := fs.Bool("compare", false, "compare two sets of result files: -compare a.json[,a2.json...] b.json[,b2.json...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two comma-separated lists of result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *quick {
		*items, *seconds = 20_000, 0.5
	}
	if *items < 10_000 || *seconds <= 0 || *seconds > 100 {
		fmt.Fprintln(stderr, "bench: -items must be at least 10000 and -seconds in (0, 100]")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rc := runConfig{seed: *seed, seconds: *seconds, sz: sizeFor(*items, *quick), outDir: filepath.Join(root, "bench", "out")}
	file := newResultFile(root, rc)

	// One workload and pass for the driver, or every workload through both.
	type pass struct {
		w     *workload
		trace bool
	}
	var passes []pass
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		passes = []pass{{w, *trace == 1}}
	} else {
		for i := range workloads {
			passes = append(passes, pass{&workloads[i], false}, pass{&workloads[i], true})
		}
	}
	var res *passResult
	for _, p := range passes {
		rc.w, rc.trace = p.w, p.trace
		if res, err = runWorkload(rc); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		file.add(res)
		printPass(stdout, res)
	}
	if err := file.write(rc.outDir); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *name != "" {
		// The driver reads correctness from the result object, not the exit code.
		fmt.Fprintln(stdout, driverLine(res))
		return 0
	}
	if !file.allCorrect() {
		fmt.Fprintln(stderr, "bench: some queries failed or returned wrong results")
		return 1
	}
	return 0
}

// repoRoot finds the checkout: the nearest directory at or above the working
// directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// defsFor lists the metrics a pass reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printPass prints every metric of a pass by name, with its unit.
func printPass(w io.Writer, res *passResult) {
	pass := "timed"
	if res.Trace {
		pass = "traced"
	}
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%s %s pass: seed %d, %d samples, %d attempted, failed_frac %g\n",
		res.Workload, pass, res.Seed, res.Samples, res.Attempted, failedFrac)
	for _, d := range defsFor(res.Trace) {
		fmt.Fprintf(w, "  %-14s %-40s %14.4f %s\n", res.Workload, d.Name, res.Metrics[d.Name], d.Unit)
	}
}

// driverLine is the one-line JSON result the driver reads: exactly the
// metrics BENCHMARK.json declares for the pass, values as measured.
func driverLine(res *passResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defsFor(res.Trace) {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, out.Correct = 0, false
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
