package costmodel

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"adr/internal/emulator"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/simadr"
)

// sampleTrace builds a synthetic measured execution: 10 MB read in 0.1s
// (100 MB/s disk), 4 MB sent in 0.05s (80 MB/s link), 1000 agg ops over
// 10ms of LR, 200 combines over 2ms of GC, 50 inits over 1ms of I, 50
// outputs over 1ms of OH.
func sampleTrace() Sample {
	var tr metrics.NodeTrace
	t := &tr.Totals
	t.DiskReadBytes = 10e6
	t.DiskReadNanos = 100e6
	t.BytesSent = 4e6
	t.NetSendNanos = 50e6
	t.AggOps = 1000
	t.CombineOps = 200
	t.PhaseNanos[metrics.Initialization] = 1e6
	t.PhaseNanos[metrics.LocalReduction] = 10e6
	t.PhaseNanos[metrics.GlobalCombine] = 2e6
	t.PhaseNanos[metrics.OutputHandling] = 1e6
	return Sample{Trace: tr, InitOps: 50, OutputOps: 50}
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

func TestObserveCalibratesRates(t *testing.T) {
	c := &Calibration{}
	c.Observe(sampleTrace())
	if c.Samples() != 1 {
		t.Fatalf("Samples = %d", c.Samples())
	}
	m, costs := c.Model(4, 2)
	if !near(m.DiskBWBytes, 100e6) {
		t.Errorf("disk BW = %g, want 100e6", m.DiskBWBytes)
	}
	if m.DiskSeekSec != 0 {
		t.Error("calibrated disk BW must zero the seek constant (effective rate)")
	}
	if !near(m.NetBWBytes, 80e6) {
		t.Errorf("net BW = %g, want 80e6", m.NetBWBytes)
	}
	if m.NetLatencySec != 0 || m.NetCPUSecPerByte != 0 {
		t.Error("calibrated net BW must zero the latency/CPU constants")
	}
	if m.DisksPerNode != 2 {
		t.Errorf("DisksPerNode = %d", m.DisksPerNode)
	}
	if !near(costs.LR, 10e-3/1000) {
		t.Errorf("LR cost = %g", costs.LR)
	}
	if !near(costs.GC, 2e-3/200) {
		t.Errorf("GC cost = %g", costs.GC)
	}
	if !near(costs.Init, 1e-3/50) {
		t.Errorf("Init cost = %g", costs.Init)
	}
	if !near(costs.OH, 1e-3/50) {
		t.Errorf("OH cost = %g", costs.OH)
	}

	// Second observation at double the disk rate: EWMA with defaultAlpha.
	s2 := sampleTrace()
	s2.Trace.Totals.DiskReadNanos = 50e6 // 200 MB/s
	c.Observe(s2)
	m2, _ := c.Model(4, 2)
	want := defaultAlpha*200e6 + (1-defaultAlpha)*100e6
	if !near(m2.DiskBWBytes, want) {
		t.Errorf("EWMA disk BW = %g, want %g", m2.DiskBWBytes, want)
	}
}

// TestObserveSkipsZeroDenominators: a trace with no disk reads (fully
// cached) or no aggregation must not corrupt the learned rates.
func TestObserveSkipsZeroDenominators(t *testing.T) {
	c := &Calibration{}
	c.Observe(sampleTrace())
	m1, costs1 := c.Model(4, 1)

	var empty Sample // all-zero trace: every signal's denominator is zero
	c.Observe(empty)
	m2, costs2 := c.Model(4, 1)
	if m1 != m2 || costs1 != costs2 {
		t.Errorf("zero-denominator sample changed the model: %+v -> %+v, %+v -> %+v", m1, m2, costs1, costs2)
	}
	if c.Samples() != 2 {
		t.Errorf("Samples = %d", c.Samples())
	}
}

// TestUncalibratedModelIsSeed: before any observation the model must be the
// DESIGN.md seed machine with the seed per-op costs.
func TestUncalibratedModelIsSeed(t *testing.T) {
	c := &Calibration{}
	m, costs := c.Model(8, 0)
	seed := simadr.DefaultMachine(8)
	if m != seed {
		t.Errorf("uncalibrated machine %+v != seed %+v", m, seed)
	}
	if costs != SeedCosts() {
		t.Errorf("uncalibrated costs %+v != seed %+v", costs, SeedCosts())
	}
}

// TestCalibrationRoundTrip: persist -> reload must reproduce the exact same
// model, and therefore the exact same strategy estimates.
func TestCalibrationRoundTrip(t *testing.T) {
	c := &Calibration{}
	c.Observe(sampleTrace())
	s2 := sampleTrace()
	s2.Trace.Totals.NetSendNanos = 25e6
	c.Observe(s2)

	path := filepath.Join(t.TempDir(), "calib.json")
	if err := c.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadCalibration(path)
	if err != nil {
		t.Fatalf("LoadCalibration: %v", err)
	}
	if loaded.Samples() != c.Samples() {
		t.Errorf("Samples %d != %d after reload", loaded.Samples(), c.Samples())
	}
	m1, costs1 := c.Model(8, 2)
	m2, costs2 := loaded.Model(8, 2)
	if m1 != m2 {
		t.Errorf("machine after reload %+v != %+v", m2, m1)
	}
	if costs1 != costs2 {
		t.Errorf("costs after reload %+v != %+v", costs2, costs1)
	}

	// The same workload must produce the identical estimate table.
	s, err := emulator.Generate(emulator.Params{App: emulator.WCS, Procs: 8, Scale: 0.125, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	machine := plan.Machine{Procs: 8, AccMemBytes: 8 << 20}
	_, ests1, err := Select(s.Workload, machine, m1, costs1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ests2, err := Select(s.Workload, machine, m2, costs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests1) != len(ests2) {
		t.Fatalf("estimate count %d != %d", len(ests2), len(ests1))
	}
	for i := range ests1 {
		if ests1[i] != ests2[i] {
			t.Errorf("estimate %d differs after reload: %+v != %+v", i, ests2[i], ests1[i])
		}
	}
}

// TestLoadCalibrationMissing: pointing -calibration-file at a path that does
// not exist yet must yield a fresh calibration, not an error.
func TestLoadCalibrationMissing(t *testing.T) {
	c, err := LoadCalibration(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if c.Samples() != 0 {
		t.Errorf("fresh calibration has %d samples", c.Samples())
	}
}

// TestLoadCalibrationCorrupt: a truncated or garbage file must fail loudly
// rather than silently resetting the learned rates.
func TestLoadCalibrationCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(path); err == nil {
		t.Fatal("corrupt calibration loaded without error")
	}
}

// TestNewSelection covers the estimate -> trace conversion and the outcome
// hookup.
func TestNewSelection(t *testing.T) {
	if NewSelection(0, nil) != nil {
		t.Fatal("empty estimates must yield a nil selection")
	}
	ests := []Estimate{
		{Strategy: plan.DA, ExecSec: 1.5, CommBytes: 100, Tiles: 2},
		{Strategy: plan.FRA, ExecSec: 2.5, CommBytes: 300, Tiles: 3},
	}
	sel := NewSelection(3, ests)
	if sel.Strategy != "DA" || sel.Node != 3 || sel.PredictedSec != 1.5 {
		t.Fatalf("selection %+v", sel)
	}
	if len(sel.Estimates) != 2 || sel.Estimates[1].Strategy != "FRA" {
		t.Fatalf("estimates %+v", sel.Estimates)
	}
	RecordOutcome(sel, 2.0)
	if sel.ActualSec != 2.0 {
		t.Fatalf("ActualSec = %g", sel.ActualSec)
	}
	RecordOutcome(nil, 1.0) // must not panic
}
