package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables is the inventory check: BENCHMARK.json and the
// tables the program emits from must name the same workloads and metrics,
// with the same units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, got, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	// Every replayed layer metric must be a declared per-layer metric.
	for _, lm := range layerMetrics {
		if !seen[lm.metric] {
			t.Errorf("replay emits undeclared metric %s", lm.metric)
		}
	}
}

// TestQuickRun drives every workload through both passes at -quick size, the
// way the driver invokes the benchmark, and checks the result lines: exactly
// the declared metrics, finite values, no failed query, no leaked buffer or
// goroutine, and no temp farm left behind.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the live stack eight times")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-quick", "-workload", w.Name, "-seed", "7", "-trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result object: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := defsFor(trace == "1")
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace %s: metric %s not emitted", w.Name, trace, d.Name)
					continue
				}
				if got.Unit != d.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace %s: %s = %v %s, want a finite value in %s", w.Name, trace, d.Name, got.Value, got.Unit, d.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, got.Value)
				}
			}
			if trace == "1" {
				for _, name := range []string{"bufpool.outstanding_after", "proc.goroutines_leaked"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("%s: %s = %v, want 0", w.Name, name, v)
					}
				}
				if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: span file not written: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(root, "bench", "out", "farm-*")); len(left) > 0 {
		t.Errorf("temp farms left behind: %v", left)
	}
}

// TestStackPortsEphemeral checks the stack binds loopback ports the kernel
// chose, so concurrent runs cannot collide.
func TestStackPortsEphemeral(t *testing.T) {
	dir := t.TempDir()
	sz := sizeFor(20_000, true)
	if err := loadFarm(dir, "sat", 0, genItems("sat", 1, sz.Items), sz); err != nil {
		t.Fatal(err)
	}
	st, err := startStack(dir, sz.CacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seen := map[string]bool{}
	for _, addr := range append([]string{st.front.Addr()}, st.nodeAddrs...) {
		host, port, err := net.SplitHostPort(addr)
		if err != nil || host != "127.0.0.1" || port == "0" || seen[port] {
			t.Errorf("address %q: want a distinct kernel-chosen loopback port", addr)
		}
		seen[port] = true
	}
}

// TestCompare feeds the compare tool an A/A pair, a regression and a noisy
// pair.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		f := resultFile{Passes: []*passResult{{Workload: "sat_scan", Metrics: map[string]float64{"query_p50_ms": p50}}}}
		data, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a1, a2, a3 := write("a1", 100), write("a2", 102), write("a3", 98)
	bound := endToEnd[0].Bound
	slow := write("slow", 100*(1+bound)+5)
	wild := write("wild", 100*(1+2*bound))
	var out bytes.Buffer
	if err := compareFiles(&out, a1+","+a2+","+a3, a2+","+a3+","+a1); err != nil {
		t.Errorf("A/A: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a1, slow); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("p50 beyond the bound not reported as regressed:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a1+","+a2+","+wild, a2+","+a3+","+wild); err == nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than the bound not reported as unresolved:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a1, write("fast", 100*(1-bound)-5)); err != nil || !strings.Contains(out.String(), "improved") {
		t.Errorf("p50 better by more than the bound not reported as improved: %v\n%s", err, out.String())
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
