package experiments

import (
	"strings"
	"testing"

	"adr/internal/emulator"
	"adr/internal/plan"
)

// quickCfg trims the sweep further for unit-test speed.
func quickCfg() Config {
	c := QuickConfig()
	c.Procs = []int{8, 16}
	c.BaseScale = 0.0625
	return c
}

func TestRunCellPopulatesMetrics(t *testing.T) {
	cfg := quickCfg()
	pt, err := cfg.RunCell(emulator.SAT, plan.FRA, 8, Fixed)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ExecSec <= 0 || pt.MaxComputeSec <= 0 || pt.Tiles < 1 || pt.SimEvents == 0 {
		t.Errorf("point not populated: %+v", pt)
	}
	if pt.MaxCommBytes <= 0 {
		t.Error("no communication measured on 8 nodes")
	}
	if float64(pt.MaxCommBytes) < pt.AvgCommBytes {
		t.Error("max comm below average")
	}
	if pt.MaxComputeSec < pt.AvgComputeSec {
		t.Error("max compute below average")
	}
}

func TestSweepCoversAllCells(t *testing.T) {
	cfg := quickCfg()
	pts, err := cfg.Sweep(emulator.VM, Fixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cfg.Procs)*len(cfg.Strategies) {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	seen := map[[2]int]bool{}
	for _, p := range pts {
		seen[[2]int{p.Procs, int(p.Strategy)}] = true
	}
	for _, procs := range cfg.Procs {
		for _, s := range cfg.Strategies {
			if !seen[[2]int{procs, int(s)}] {
				t.Errorf("missing cell p=%d %v", procs, s)
			}
		}
	}
}

func TestScaledGrowsDataset(t *testing.T) {
	cfg := quickCfg()
	if cfg.scaleFor(8, Fixed) != cfg.scaleFor(16, Fixed) {
		t.Error("fixed scaling should not depend on procs")
	}
	if cfg.scaleFor(16, Scaled) != 2*cfg.scaleFor(8, Scaled) {
		t.Error("scaled scaling should double with procs")
	}
}

func TestTable1Rows(t *testing.T) {
	cfg := quickCfg()
	rows, err := cfg.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MinChunks <= 0 || r.MaxChunks < r.MinChunks {
			t.Errorf("%v: chunk range %d-%d", r.App, r.MinChunks, r.MaxChunks)
		}
		if r.MinFanOut <= 0 || r.CostsMs[1] <= 0 {
			t.Errorf("%v: characteristics empty", r.App)
		}
	}
}

func TestFormatTableAndCSV(t *testing.T) {
	cfg := quickCfg()
	pts, err := cfg.Sweep(emulator.WCS, Fixed)
	if err != nil {
		t.Fatal(err)
	}
	table := FormatTable(pts, func(p Point) float64 { return p.ExecSec }, "(s)")
	for _, want := range []string{"procs", "FRA(s)", "SRA(s)", "DA(s)", "8", "16"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := CSV(pts)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(pts) {
		t.Errorf("csv has %d lines, want %d", len(lines), 1+len(pts))
	}
	if !strings.HasPrefix(lines[0], "app,strategy,procs") {
		t.Errorf("csv header = %q", lines[0])
	}
	if FormatTable(nil, nil, "") == "" {
		t.Error("empty table should still render")
	}
}

// TestPaperShapesQuick verifies the headline qualitative results on the
// reduced sweep: these are the claims EXPERIMENTS.md records.
func TestPaperShapesQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.Procs = []int{8, 32}

	get := func(app emulator.App, s plan.Strategy, procs int, sc Scaling) Point {
		t.Helper()
		pt, err := cfg.RunCell(app, s, procs, sc)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}

	// Fig 8 fixed: execution time falls with procs for every strategy.
	for _, s := range cfg.Strategies {
		if a, b := get(emulator.SAT, s, 8, Fixed), get(emulator.SAT, s, 32, Fixed); b.ExecSec >= a.ExecSec {
			t.Errorf("SAT fixed %v: %g at 8 procs, %g at 32", s, a.ExecSec, b.ExecSec)
		}
	}
	// Fig 8 fixed: FRA beats DA at 8 procs for SAT (DA's messaging CPU
	// overhead). This comparison needs the full-size dataset — at reduced
	// scale FRA's constant per-output overhead dominates instead.
	full := cfg
	full.BaseScale = 1
	fraFull, err := full.RunCell(emulator.SAT, plan.FRA, 8, Fixed)
	if err != nil {
		t.Fatal(err)
	}
	daFull, err := full.RunCell(emulator.SAT, plan.DA, 8, Fixed)
	if err != nil {
		t.Fatal(err)
	}
	if fraFull.ExecSec >= daFull.ExecSec {
		t.Errorf("SAT fixed p=8 (full size): FRA %g should beat DA %g", fraFull.ExecSec, daFull.ExecSec)
	}
	// Fig 8 scaled: FRA roughly flat, DA grows for SAT.
	fra8, fra32 := get(emulator.SAT, plan.FRA, 8, Scaled), get(emulator.SAT, plan.FRA, 32, Scaled)
	if ratio := fra32.ExecSec / fra8.ExecSec; ratio > 1.35 || ratio < 0.75 {
		t.Errorf("SAT scaled FRA not flat: %g -> %g", fra8.ExecSec, fra32.ExecSec)
	}
	da8, da32 := get(emulator.SAT, plan.DA, 8, Scaled), get(emulator.SAT, plan.DA, 32, Scaled)
	if da32.ExecSec <= da8.ExecSec {
		t.Errorf("SAT scaled DA should grow: %g -> %g", da8.ExecSec, da32.ExecSec)
	}
	// Fig 9(a): DA per-proc comm falls with procs; FRA roughly flat.
	if a, b := get(emulator.SAT, plan.DA, 8, Fixed), get(emulator.SAT, plan.DA, 32, Fixed); b.MaxCommBytes >= a.MaxCommBytes {
		t.Errorf("SAT fixed DA comm should fall: %d -> %d", a.MaxCommBytes, b.MaxCommBytes)
	}
	// Fig 9(b): DA per-proc comm grows with scaled input.
	if da32.MaxCommBytes <= da8.MaxCommBytes {
		t.Errorf("SAT scaled DA comm should grow: %d -> %d", da8.MaxCommBytes, da32.MaxCommBytes)
	}
	// DA packs fewer tiles than FRA (§3.3) whenever FRA needs several.
	fraFix := get(emulator.SAT, plan.FRA, 8, Fixed)
	daFix := get(emulator.SAT, plan.DA, 8, Fixed)
	if daFix.Tiles > fraFix.Tiles {
		t.Errorf("DA %d tiles > FRA %d", daFix.Tiles, fraFix.Tiles)
	}
	// SRA ghosts never exceed FRA's.
	sraFix := get(emulator.SAT, plan.SRA, 8, Fixed)
	if sraFix.GhostChunks > fraFix.GhostChunks {
		t.Errorf("SRA ghosts %d > FRA %d", sraFix.GhostChunks, fraFix.GhostChunks)
	}
}
