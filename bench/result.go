package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// resultFile is the one schema every run writes (bench/out/result-<sha>-
// <unix>.json, one line) and bench/history.jsonl keeps one line of per
// accepted run: where and how the run was made, then every pass with its
// sample count and all its metrics.
type resultFile struct {
	Sha        string        `json:"sha"`
	Unix       int64         `json:"unix"`
	Seed       int64         `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Sizing     sizing        `json:"sizing"`
	Nodes      int           `json:"nodes"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NProc      int           `json:"nproc"`
	GoVersion  string        `json:"go_version"`
	Passes     []*passResult `json:"passes"`
}

func newResultFile(root string, rc runConfig) *resultFile {
	return &resultFile{
		Sha: gitSha(root), Unix: time.Now().Unix(), Seed: rc.seed, Seconds: rc.seconds, Sizing: rc.sz,
		Nodes: nodes, GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
}

// gitSha names the commit the run measured; the driver's checkout is not a
// git repository, and then the name says so.
func gitSha(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

func (f *resultFile) add(res *passResult) { f.Passes = append(f.Passes, res) }

func (f *resultFile) allCorrect() bool {
	for _, p := range f.Passes {
		if !p.Correct {
			return false
		}
	}
	return true
}

func (f *resultFile) write(outDir string) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-%d.json", f.Sha, f.Unix))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timedValues collects, from a set of result files, every timed-pass value
// of each workload's end-to-end metrics: workload -> metric -> one value per
// run.
func timedValues(list string) (map[string]map[string][]float64, error) {
	vals := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, p := range f.Passes {
			if p.Trace {
				continue
			}
			if vals[p.Workload] == nil {
				vals[p.Workload] = map[string][]float64{}
			}
			for name, v := range p.Metrics {
				vals[p.Workload][name] = append(vals[p.Workload][name], v)
			}
		}
	}
	return vals, nil
}

// quartiles returns the first quartile, median and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the rule the driver applies).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	var q [4]float64
	for i := 1; i < 4; i++ {
		j := i * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*(len(s)+1) - j*4)
		q[i] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[1], q[2], q[3]
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians (and quartile spread, when a side has several runs), the relative
// change in the worse direction, the bound and a verdict. A metric is
// unresolved when either side's interquartile spread exceeds the bound and
// the two sides' runs overlap. It returns an error if any metric regressed
// or is unresolved.
func compareFiles(w io.Writer, listA, listB string) error {
	a, err := timedValues(listA)
	if err != nil {
		return err
	}
	b, err := timedValues(listB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-14s %-20s %14s %8s %14s %8s %9s %6s  %s\n",
		"workload", "metric", "a median", "a iqr", "b median", "b iqr", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
			case (spreadA > d.Bound || spreadB > d.Bound) && !separated(va, vb):
				verdict = "unresolved"
			case worse < -d.Bound:
				verdict = "improved"
			}
			if verdict == "regressed" || verdict == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %7.1f%% %14.4f %7.1f%% %+8.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, am, 100*spreadA, bm, 100*spreadB, 100*worse, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics regressed or unresolved", bad)
	}
	return nil
}

// separated reports whether every run of one side reads beyond every run of
// the other, so that their order is not in doubt whatever the spread.
func separated(a, b []float64) bool {
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}
