package emulator

import (
	"math"
	"testing"

	"adr/internal/plan"
)

func gen(t *testing.T, app App, procs int, scale float64) *Scenario {
	t.Helper()
	s, err := Generate(Params{App: app, Procs: procs, Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %.3g, want %.3g +/- %.0f%%", name, got, want, tol*100)
	}
}

// TestTable1Characteristics checks the emulators reproduce the paper's
// application characteristics at minimum and 16x scale.
func TestTable1Characteristics(t *testing.T) {
	// SAT minimum: 9K chunks, 1.6GB, fan-in ~161, fan-out ~4.6.
	sat := gen(t, SAT, 16, 1).Measure()
	if sat.InputChunks != 9000 {
		t.Errorf("SAT chunks = %d", sat.InputChunks)
	}
	within(t, "SAT input bytes", float64(sat.InputBytes), 1.6e9, 0.15)
	within(t, "SAT fan-out", sat.AvgFanOut, 4.6, 0.25)
	within(t, "SAT fan-in", sat.AvgFanIn, 161, 0.25)
	if sat.OutputChunks != 256 {
		t.Errorf("SAT output chunks = %d", sat.OutputChunks)
	}
	within(t, "SAT output bytes", float64(sat.OutputBytes), 25e6, 0.1)

	// SAT 16x: 144K chunks, ~26GB. Fan-out is held at ~4.6 across scales
	// (see the genSAT comment: Table 1's printed 1307 max fan-in implies a
	// fan-out drop that contradicts Fig 8's flat scaled curves), so fan-in
	// at 16x is 144K*4.6/256 ~ 2590.
	sat16 := gen(t, SAT, 128, 16).Measure()
	if sat16.InputChunks != 144000 {
		t.Errorf("SAT 16x chunks = %d", sat16.InputChunks)
	}
	within(t, "SAT 16x input bytes", float64(sat16.InputBytes), 26e9, 0.15)
	within(t, "SAT 16x fan-in", sat16.AvgFanIn, 2588, 0.25)
	within(t, "SAT 16x fan-out", sat16.AvgFanOut, 4.6, 0.25)

	// WCS minimum: ~7.5K chunks, 1.7GB, fan-out ~1.2, fan-in ~60, 150 outs.
	wcs := gen(t, WCS, 16, 1).Measure()
	within(t, "WCS chunks", float64(wcs.InputChunks), 7500, 0.1)
	within(t, "WCS input bytes", float64(wcs.InputBytes), 1.7e9, 0.15)
	within(t, "WCS fan-out", wcs.AvgFanOut, 1.2, 0.25)
	within(t, "WCS fan-in", wcs.AvgFanIn, 60, 0.3)
	if wcs.OutputChunks != 150 {
		t.Errorf("WCS output chunks = %d", wcs.OutputChunks)
	}

	// VM minimum: ~4K chunks, 1.5GB, fan-out exactly 1, fan-in ~16.
	vm := gen(t, VM, 16, 1).Measure()
	within(t, "VM chunks", float64(vm.InputChunks), 4000, 0.1)
	within(t, "VM input bytes", float64(vm.InputBytes), 1.5e9, 0.15)
	if vm.AvgFanOut != 1.0 {
		t.Errorf("VM fan-out = %g, want exactly 1", vm.AvgFanOut)
	}
	within(t, "VM fan-in", vm.AvgFanIn, 16, 0.1)
	if vm.OutputChunks != 256 {
		t.Errorf("VM output chunks = %d", vm.OutputChunks)
	}
}

func TestScenariosPlanAndVerify(t *testing.T) {
	for _, app := range Apps {
		s := gen(t, app, 8, 1)
		pl, err := plan.NewPlanner(plan.Machine{Procs: 8, AccMemBytes: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA} {
			p, err := pl.Plan(strat, s.Workload)
			if err != nil {
				t.Fatalf("%v/%v: %v", app, strat, err)
			}
			if err := plan.Verify(p, s.Workload); err != nil {
				t.Fatalf("%v/%v: %v", app, strat, err)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := gen(t, SAT, 8, 1)
	b := gen(t, SAT, 8, 1)
	if len(a.Workload.Inputs) != len(b.Workload.Inputs) {
		t.Fatal("sizes differ")
	}
	for i := range a.Workload.Inputs {
		if !a.Workload.Inputs[i].MBR.Equal(b.Workload.Inputs[i].MBR) ||
			a.Workload.Inputs[i].Bytes != b.Workload.Inputs[i].Bytes ||
			a.Workload.Inputs[i].Node != b.Workload.Inputs[i].Node {
			t.Fatalf("chunk %d differs between identical params", i)
		}
	}
}

func TestSeedVariesGeneration(t *testing.T) {
	a, err := Generate(Params{App: SAT, Procs: 8, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Params{App: SAT, Procs: 8, Scale: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Workload.Inputs {
		if !a.Workload.Inputs[i].MBR.Equal(b.Workload.Inputs[i].MBR) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical SAT population")
	}
}

// TestSATIrregularity verifies the polar-orbit skew: per-output fan-in near
// the poles exceeds fan-in at the equator.
func TestSATIrregularity(t *testing.T) {
	s := gen(t, SAT, 8, 1)
	w := s.Workload
	fanIn := make([]int, len(w.Outputs))
	for i := range w.Inputs {
		for _, o := range w.Targets[i] {
			fanIn[o]++
		}
	}
	// Output grid is 16x16 over y in [0,180]; rows 0-1 and 14-15 are polar,
	// rows 7-8 equatorial. Row-major: first dim (x) slowest in our grid, so
	// compute row from the cell's MBR.
	var polar, equator, polarN, equatorN float64
	for o, m := range w.Outputs {
		yc := (m.MBR.Lo[1] + m.MBR.Hi[1]) / 2
		switch {
		case yc < 22.5 || yc > 157.5:
			polar += float64(fanIn[o])
			polarN++
		case yc > 67.5 && yc < 112.5:
			equator += float64(fanIn[o])
			equatorN++
		}
	}
	polar /= polarN
	equator /= equatorN
	if polar < 1.5*equator {
		t.Errorf("polar fan-in %.1f not skewed vs equator %.1f", polar, equator)
	}
}

// TestRegularAppsAreBalanced verifies WCS/VM have near-uniform fan-in.
func TestRegularAppsAreBalanced(t *testing.T) {
	for _, app := range []App{WCS, VM} {
		s := gen(t, app, 8, 1)
		w := s.Workload
		fanIn := make([]int, len(w.Outputs))
		for i := range w.Inputs {
			for _, o := range w.Targets[i] {
				fanIn[o]++
			}
		}
		min, max := 1<<30, 0
		for _, f := range fanIn {
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
		}
		if float64(max) > 2.0*float64(min) {
			t.Errorf("%v: fan-in range [%d, %d] too skewed for a regular app", app, min, max)
		}
	}
}

func TestPlacementUsesAllNodes(t *testing.T) {
	s := gen(t, WCS, 16, 1)
	seen := make(map[int32]bool)
	for _, m := range s.Workload.Inputs {
		seen[m.Node] = true
		if m.Node < 0 || m.Node >= 16 {
			t.Fatalf("node %d out of range", m.Node)
		}
		if int32(int(m.Disk)/1) != m.Disk || m.Disk/1 != m.Node {
			t.Fatalf("disk %d inconsistent with node %d at 1 disk/node", m.Disk, m.Node)
		}
	}
	if len(seen) != 16 {
		t.Errorf("inputs placed on %d of 16 nodes", len(seen))
	}
}

func TestMultiDiskPlacement(t *testing.T) {
	s, err := Generate(Params{App: VM, Procs: 4, DisksPerNode: 4, Scale: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Workload.Inputs {
		if m.Node != m.Disk/4 {
			t.Fatalf("disk %d should belong to node %d, marked %d", m.Disk, m.Disk/4, m.Node)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Params{App: SAT, Procs: 0}); err == nil {
		t.Error("0 procs should fail")
	}
}

func TestScaledKeepsPerProcConstant(t *testing.T) {
	// Scaled experiments: chunks per processor stay ~constant.
	base := gen(t, SAT, 8, 1).Measure()
	scaled := gen(t, SAT, 64, 8).Measure()
	perProcBase := float64(base.InputChunks) / 8
	perProcScaled := float64(scaled.InputChunks) / 64
	within(t, "per-proc chunks", perProcScaled, perProcBase, 0.05)
}
