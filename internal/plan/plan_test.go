package plan

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"adr/internal/chunk"
	"adr/internal/space"
)

// randWorkload builds a random but structurally valid workload: outputs with
// random MBRs/owners, inputs with random owners and random ascending target
// sets. It is the generator behind the property tests.
func randWorkload(rng *rand.Rand, procs int) *Workload {
	nOut := 1 + rng.Intn(40)
	nIn := rng.Intn(150)
	w := &Workload{
		Inputs:  make([]chunk.Meta, nIn),
		Outputs: make([]chunk.Meta, nOut),
		Targets: make([][]int32, nIn),
	}
	for o := range w.Outputs {
		x, y := rng.Float64()*100, rng.Float64()*100
		w.Outputs[o] = chunk.Meta{
			ID:      chunk.ID(o),
			Dataset: "out",
			MBR:     space.R(x, x+2, y, y+2),
			Bytes:   int64(50 + rng.Intn(100)),
			Node:    int32(rng.Intn(procs)),
		}
	}
	for i := range w.Inputs {
		x, y := rng.Float64()*100, rng.Float64()*100
		w.Inputs[i] = chunk.Meta{
			ID:      chunk.ID(i),
			Dataset: "in",
			MBR:     space.R(x, x+1, y, y+1),
			Bytes:   int64(100 + rng.Intn(400)),
			Node:    int32(rng.Intn(procs)),
		}
		maxFan := 4
		if nOut < maxFan {
			maxFan = nOut
		}
		fanout := 1 + rng.Intn(maxFan)
		seen := make(map[int32]bool)
		var ts []int32
		for len(ts) < fanout {
			t := int32(rng.Intn(nOut))
			if !seen[t] {
				seen[t] = true
				ts = append(ts, t)
			}
		}
		sortInt32(ts)
		w.Targets[i] = ts
	}
	return w
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// capacityFor picks an accumulator memory that forces multiple tiles for
// most random workloads without making single chunks oversized.
func capacityFor(w *Workload) int64 {
	var total, maxc int64
	for o := range w.Outputs {
		total += w.AccSize(int32(o))
		if s := w.AccSize(int32(o)); s > maxc {
			maxc = s
		}
	}
	c := total / 4
	if c < maxc {
		c = maxc
	}
	return c
}

func mustPlan(t *testing.T, s Strategy, w *Workload, m Machine) *Plan {
	t.Helper()
	pl, err := NewPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(s, w)
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	return p
}

// withoutProc moves every chunk stored on processor dead to its ring
// successor — what Degrade leaves of a workload whose chunks have no replicas
// — and returns the exclusion set naming it.
func withoutProc(w *Workload, dead int32, procs int) map[int32]bool {
	next := (dead + 1) % int32(procs)
	for i := range w.Inputs {
		if w.Inputs[i].Node == dead {
			w.Inputs[i].Node = next
		}
	}
	for o := range w.Outputs {
		if w.Outputs[o].Node == dead {
			w.Outputs[o].Node = next
		}
	}
	return map[int32]bool{dead: true}
}

// rowWords restates each row of the strategy table as what a test can see in
// a plan: where an output is homed, and which live non-home processors hold a
// ghost of it.
var rowWords = map[Strategy]struct {
	homeIsOwner bool
	ghost       func(projects bool) bool // projects: the processor stores an input chunk projecting to the output
}{
	FRA:    {true, func(bool) bool { return true }},
	SRA:    {true, func(projects bool) bool { return projects }},
	DA:     {true, func(bool) bool { return false }},
	Hybrid: {false, func(bool) bool { return false }},
}

// checkRow holds plan p to its strategy's row: homes and ghosts as the row
// says, an input chunk forwarded to a target's home exactly when its reader
// holds no copy of the target (so never under FRA and SRA, and whenever reader
// != home under DA and HYBRID), nothing else forwarded, and a finished output
// shipped exactly when it is homed away from its owner.
func checkRow(t *testing.T, p *Plan, w *Workload, exclude map[int32]bool) {
	t.Helper()
	row := rowWords[p.Strategy]
	wantFwd := make(map[[3]int32]bool) // (tile, input, dest)
	ships := 0
	for o, srcs := range w.Sources() {
		o, home, tile := int32(o), p.Home[o], &p.Tiles[p.TileOf[o]]
		if exclude[home] || row.homeIsOwner && home != w.Outputs[o].Node {
			t.Fatalf("%v: output %d (owner %d) homed on %d", p.Strategy, o, w.Outputs[o].Node, home)
		}
		if home != w.Outputs[o].Node {
			ships++
		}
		projects := make(map[int32]bool)
		for _, i := range srcs {
			projects[w.Inputs[i].Node] = true
		}
		for q := int32(0); int(q) < p.Machine.Procs; q++ {
			want := q != home && !exclude[q] && row.ghost(projects[q])
			if slices.Contains(tile.Ghosts[q], o) != want {
				t.Fatalf("%v: output %d (home %d) ghost on processor %d = %v, row says %v", p.Strategy, o, home, q, !want, want)
			}
		}
		for _, i := range srcs {
			if reader := w.Inputs[i].Node; reader != home && !slices.Contains(tile.Ghosts[reader], o) {
				wantFwd[[3]int32{p.TileOf[o], i, home}] = true
			}
		}
	}
	forwards := 0
	for ti := range p.Tiles {
		for q, fwds := range p.Tiles[ti].Forwards {
			for _, f := range fwds {
				forwards++
				if !wantFwd[[3]int32{int32(ti), f.Input, f.Dest}] || w.Inputs[f.Input].Node != int32(q) {
					t.Fatalf("%v: tile %d processor %d forwards input %d to %d, row says no", p.Strategy, ti, q, f.Input, f.Dest)
				}
			}
		}
	}
	if forwards != len(wantFwd) {
		t.Fatalf("%v: %d forwards, row says %d", p.Strategy, forwards, len(wantFwd))
	}
	if row.ghost(true) && forwards != 0 {
		t.Fatalf("%v forwards %d input chunks", p.Strategy, forwards)
	}
	if got := ComputeStats(p, w).OutputShips; got != ships {
		t.Fatalf("%v: %d finished outputs shipped, %d homed away from their owner", p.Strategy, got, ships)
	}
}

func TestNewPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(Machine{Procs: 0, AccMemBytes: 100}); err == nil {
		t.Error("0 procs should fail")
	}
	if _, err := NewPlanner(Machine{Procs: 2, AccMemBytes: 0}); err == nil {
		t.Error("0 memory should fail")
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range Strategies {
		if s.String() == "" {
			t.Errorf("strategy %d has empty name", int(s))
		}
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy should fail to parse")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// TestParseStrategyCaseInsensitive: adr-query -strategy fra used to fail
// because ParseStrategy matched exact upper-case names only.
func TestParseStrategyCaseInsensitive(t *testing.T) {
	cases := map[string]Strategy{
		"fra": FRA, "Fra": FRA, "FRA": FRA,
		"sra": SRA, "da": DA,
		"hybrid": Hybrid, "Hybrid": Hybrid,
		"auto": Auto, "AUTO": Auto, "Auto": Auto,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// The error must teach the caller the valid names.
	_, err := ParseStrategy("nope")
	if err == nil {
		t.Fatal("ParseStrategy accepted junk")
	}
	for _, name := range []string{"FRA", "SRA", "DA", "HYBRID", "AUTO"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate %s", err, name)
		}
	}
}

// TestPlanRejectsAuto: AUTO is a request for cost-model selection, never a
// plannable strategy — the planner must refuse it rather than fall through
// to an arbitrary default.
func TestPlanRejectsAuto(t *testing.T) {
	pl, err := NewPlanner(Machine{Procs: 2, AccMemBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := &Workload{
		Inputs:  []chunk.Meta{{Bytes: 1}},
		Outputs: []chunk.Meta{{Bytes: 1}},
		Targets: [][]int32{{0}},
	}
	if _, err := pl.Plan(Auto, w); err == nil {
		t.Fatal("planner accepted AUTO")
	}
	for _, s := range Strategies {
		if s == Auto {
			t.Fatal("Strategies must list only plannable (fixed) strategies")
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	w := &Workload{
		Inputs:  []chunk.Meta{{}},
		Outputs: []chunk.Meta{{}},
		Targets: [][]int32{{0}},
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	bad := &Workload{Inputs: []chunk.Meta{{}}, Targets: nil}
	if err := bad.Validate(); err == nil {
		t.Error("target arity mismatch should fail")
	}
	bad = &Workload{Inputs: []chunk.Meta{{}}, Outputs: []chunk.Meta{{}}, Targets: [][]int32{{5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range target should fail")
	}
	bad = &Workload{Inputs: []chunk.Meta{{}}, Outputs: []chunk.Meta{{}, {}}, Targets: [][]int32{{1, 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("descending targets should fail")
	}
	bad = &Workload{Outputs: []chunk.Meta{{}}, AccBytes: []int64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("AccBytes arity mismatch should fail")
	}
}

func TestPlanRejectsBadOwners(t *testing.T) {
	w := &Workload{
		Outputs: []chunk.Meta{{Node: 5, Bytes: 10}},
	}
	pl, _ := NewPlanner(Machine{Procs: 2, AccMemBytes: 100})
	if _, err := pl.Plan(FRA, w); err == nil {
		t.Error("owner outside machine should fail")
	}
	w = &Workload{
		Inputs:  []chunk.Meta{{Node: -1}},
		Outputs: []chunk.Meta{{Node: 0, Bytes: 10}},
		Targets: [][]int32{{0}},
	}
	if _, err := pl.Plan(FRA, w); err == nil {
		t.Error("negative input owner should fail")
	}
}

func TestSourcesInvertsTargets(t *testing.T) {
	w := &Workload{
		Inputs:  make([]chunk.Meta, 3),
		Outputs: make([]chunk.Meta, 2),
		Targets: [][]int32{{0, 1}, {1}, {0}},
	}
	src := w.Sources()
	if len(src[0]) != 2 || src[0][0] != 0 || src[0][1] != 2 {
		t.Errorf("sources[0] = %v", src[0])
	}
	if len(src[1]) != 2 || src[1][0] != 0 || src[1][1] != 1 {
		t.Errorf("sources[1] = %v", src[1])
	}
}

// fraSmall is a hand-checkable workload: 4 outputs of 100 bytes on 2 procs,
// 4 inputs with known targets.
func fraSmall() *Workload {
	return &Workload{
		Outputs: []chunk.Meta{
			{ID: 0, MBR: space.R(0, 1, 0, 1), Bytes: 100, Node: 0},
			{ID: 1, MBR: space.R(1, 2, 0, 1), Bytes: 100, Node: 1},
			{ID: 2, MBR: space.R(0, 1, 1, 2), Bytes: 100, Node: 0},
			{ID: 3, MBR: space.R(1, 2, 1, 2), Bytes: 100, Node: 1},
		},
		Inputs: []chunk.Meta{
			{ID: 0, MBR: space.R(0, 1, 0, 1), Bytes: 500, Node: 0, Dataset: "in"},
			{ID: 1, MBR: space.R(1, 2, 0, 1), Bytes: 500, Node: 1, Dataset: "in"},
			{ID: 2, MBR: space.R(0, 2, 0, 2), Bytes: 500, Node: 0, Dataset: "in"},
			{ID: 3, MBR: space.R(1, 2, 1, 2), Bytes: 500, Node: 1, Dataset: "in"},
		},
		Targets: [][]int32{{0}, {1}, {0, 1, 2, 3}, {3}},
	}
}

func TestFRASmall(t *testing.T) {
	w := fraSmall()
	// Capacity 200: two outputs per tile -> 2 tiles.
	p := mustPlan(t, FRA, w, Machine{Procs: 2, AccMemBytes: 200})
	if err := Verify(p, w); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(p.Tiles) != 2 {
		t.Fatalf("tiles = %d, want 2", len(p.Tiles))
	}
	checkRow(t, p, w, nil)
	for ti, tile := range p.Tiles {
		if len(tile.Outputs) != 2 {
			t.Errorf("tile %d has %d outputs", ti, len(tile.Outputs))
		}
		// FRA: every non-owner holds a ghost for every output in the tile.
		for _, c := range tile.Outputs {
			owner := w.Outputs[c].Node
			other := 1 - owner
			found := false
			for _, g := range tile.Ghosts[other] {
				if g == c {
					found = true
				}
			}
			if !found {
				t.Errorf("tile %d: output %d missing ghost on proc %d", ti, c, other)
			}
		}
		// No forwards under FRA.
		for q := range tile.Forwards {
			if len(tile.Forwards[q]) != 0 {
				t.Errorf("tile %d proc %d has forwards under FRA", ti, q)
			}
		}
	}
	// Input 2 maps to all 4 outputs, which span both tiles, so node 0 reads
	// it in both tiles: one repeated retrieval.
	s := ComputeStats(p, w)
	if s.RereadInputs != 1 {
		t.Errorf("RereadInputs = %d, want 1", s.RereadInputs)
	}
	if s.Forwards != 0 || s.ForwardBytes != 0 {
		t.Errorf("FRA forwards = %d/%d bytes", s.Forwards, s.ForwardBytes)
	}
	// Ghosts: 2 tiles x 2 outputs each x 1 non-owner = 4 ghosts of 100 bytes.
	if s.GhostChunks != 4 || s.GhostBytes != 400 {
		t.Errorf("ghosts = %d chunks / %d bytes, want 4/400", s.GhostChunks, s.GhostBytes)
	}
}

func TestDASmall(t *testing.T) {
	w := fraSmall()
	p := mustPlan(t, DA, w, Machine{Procs: 2, AccMemBytes: 200})
	if err := Verify(p, w); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// DA: each proc owns 2 outputs of 100 bytes; capacity 200 holds both,
	// so a single tile.
	if len(p.Tiles) != 1 {
		t.Fatalf("tiles = %d, want 1", len(p.Tiles))
	}
	s := ComputeStats(p, w)
	if s.GhostChunks != 0 {
		t.Errorf("DA allocated %d ghosts", s.GhostChunks)
	}
	// Input 2 (node 0) maps to outputs 1,3 owned by node 1: forwarded once
	// (deduped across the two target outputs in the same tile).
	if s.Forwards != 1 || s.ForwardBytes != 500 {
		t.Errorf("forwards = %d/%d bytes, want 1/500", s.Forwards, s.ForwardBytes)
	}
	if s.RereadInputs != 0 {
		t.Errorf("RereadInputs = %d, want 0", s.RereadInputs)
	}
	checkRow(t, p, w, nil)
	checkRow(t, mustPlan(t, Hybrid, w, Machine{Procs: 2, AccMemBytes: 200}), w, nil)
}

func TestSRAGhostsSubsetOfFRA(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		procs := 2 + rng.Intn(6)
		w := randWorkload(rng, procs)
		m := Machine{Procs: procs, AccMemBytes: capacityFor(w)}
		fra := mustPlan(t, FRA, w, m)
		sra := mustPlan(t, SRA, w, m)
		fraStats := ComputeStats(fra, w)
		sraStats := ComputeStats(sra, w)
		if sraStats.GhostChunks > fraStats.GhostChunks {
			t.Fatalf("trial %d: SRA ghosts %d > FRA ghosts %d",
				trial, sraStats.GhostChunks, fraStats.GhostChunks)
		}
		// Every strategy plans what its table row says — SRA's ghosts exactly
		// the processors with projecting inputs — on the full machine and
		// with one processor excluded.
		for _, degraded := range []bool{false, true} {
			pl, _ := NewPlanner(m)
			var exclude map[int32]bool
			if degraded {
				exclude = withoutProc(w, int32(rng.Intn(procs)), procs)
			}
			pl.Exclude = exclude
			for _, s := range Strategies {
				p, err := pl.Plan(s, w)
				if err != nil {
					t.Fatalf("trial %d %v: %v", trial, s, err)
				}
				checkRow(t, p, w, exclude)
			}
		}
	}
}

func TestAllStrategiesVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		procs := 1 + rng.Intn(8)
		w := randWorkload(rng, procs)
		m := Machine{Procs: procs, AccMemBytes: capacityFor(w)}
		for _, s := range Strategies {
			p := mustPlan(t, s, w, m)
			if err := Verify(p, w); err != nil {
				t.Fatalf("trial %d %v: %v", trial, s, err)
			}
		}
	}
}

func TestTileCountOrdering(t *testing.T) {
	// DA packs at least as tightly as SRA, which packs at least as tightly
	// as FRA (§3.3: DA "produce[s] fewer tiles than the other two schemes").
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 30; trial++ {
		procs := 2 + rng.Intn(6)
		w := randWorkload(rng, procs)
		m := Machine{Procs: procs, AccMemBytes: capacityFor(w)}
		fra := mustPlan(t, FRA, w, m)
		sra := mustPlan(t, SRA, w, m)
		da := mustPlan(t, DA, w, m)
		if len(sra.Tiles) > len(fra.Tiles) {
			t.Fatalf("trial %d: SRA %d tiles > FRA %d", trial, len(sra.Tiles), len(fra.Tiles))
		}
		if len(da.Tiles) > len(sra.Tiles) {
			t.Fatalf("trial %d: DA %d tiles > SRA %d", trial, len(da.Tiles), len(sra.Tiles))
		}
	}
}

func TestSRAEqualsFRAWhenSaturated(t *testing.T) {
	// When every processor holds input chunks projecting to every output
	// chunk (fan-in >> P), SRA degenerates to FRA (§4: "in such cases, SRA
	// performance is identical to FRA").
	procs := 4
	nOut := 8
	w := &Workload{}
	for o := 0; o < nOut; o++ {
		w.Outputs = append(w.Outputs, chunk.Meta{
			ID: chunk.ID(o), MBR: space.R(float64(o), float64(o+1), 0, 1),
			Bytes: 100, Node: int32(o % procs),
		})
	}
	// One input per (proc, output) pair.
	for q := 0; q < procs; q++ {
		for o := 0; o < nOut; o++ {
			w.Inputs = append(w.Inputs, chunk.Meta{
				ID: chunk.ID(len(w.Inputs)), MBR: space.R(float64(o), float64(o+1), 0, 1),
				Bytes: 200, Node: int32(q),
			})
			w.Targets = append(w.Targets, []int32{int32(o)})
		}
	}
	m := Machine{Procs: procs, AccMemBytes: 300}
	fra := mustPlan(t, FRA, w, m)
	sra := mustPlan(t, SRA, w, m)
	if len(fra.Tiles) != len(sra.Tiles) {
		t.Fatalf("FRA %d tiles, SRA %d tiles", len(fra.Tiles), len(sra.Tiles))
	}
	fs, ss := ComputeStats(fra, w), ComputeStats(sra, w)
	if fs.GhostChunks != ss.GhostChunks {
		t.Errorf("ghosts FRA %d, SRA %d — should match when saturated", fs.GhostChunks, ss.GhostChunks)
	}
}

func TestTilingOrderIsHilbertSorted(t *testing.T) {
	// Outputs along a 1-D line must be visited monotonically.
	var outputs []chunk.Meta
	for o := 9; o >= 0; o-- { // deliberately reversed input order
		outputs = append(outputs, chunk.Meta{
			ID: chunk.ID(9 - o), MBR: space.R(float64(o), float64(o)+0.5),
		})
	}
	order := tilingOrder(outputs)
	for k := 1; k < len(order); k++ {
		if outputs[order[k]].MBR.Lo[0] < outputs[order[k-1]].MBR.Lo[0] {
			t.Fatalf("1-D tiling order not monotone: %v", order)
		}
	}
}

func TestTilingOrderEmpty(t *testing.T) {
	if got := tilingOrder(nil); len(got) != 0 {
		t.Errorf("tilingOrder(nil) = %v", got)
	}
}

func TestHybridReducesForwardBytesWhenInputsColocated(t *testing.T) {
	// All inputs for each output live on one processor, but the outputs are
	// owned elsewhere. DA must forward everything; the hybrid homes the
	// accumulator at the inputs and ships only the finished chunk.
	procs := 4
	w := &Workload{}
	for o := 0; o < 8; o++ {
		w.Outputs = append(w.Outputs, chunk.Meta{
			ID: chunk.ID(o), MBR: space.R(float64(o), float64(o)+1, 0, 1),
			Bytes: 100, Node: int32((o + 1) % procs), // owner != input home
		})
		for k := 0; k < 6; k++ {
			w.Inputs = append(w.Inputs, chunk.Meta{
				ID: chunk.ID(len(w.Inputs)), MBR: space.R(float64(o), float64(o)+1, 0, 1),
				Bytes: 1000, Node: int32(o % procs), // all on one proc
			})
			w.Targets = append(w.Targets, []int32{int32(o)})
		}
	}
	m := Machine{Procs: procs, AccMemBytes: 100000}
	da := mustPlan(t, DA, w, m)
	hy := mustPlan(t, Hybrid, w, m)
	if err := Verify(hy, w); err != nil {
		t.Fatalf("hybrid Verify: %v", err)
	}
	ds, hs := ComputeStats(da, w), ComputeStats(hy, w)
	if ds.ForwardBytes == 0 {
		t.Fatal("test workload should force DA forwards")
	}
	if hs.ForwardBytes >= ds.ForwardBytes {
		t.Errorf("hybrid forwards %d bytes >= DA %d", hs.ForwardBytes, ds.ForwardBytes)
	}
	if hs.OutputShips == 0 {
		t.Error("hybrid should ship homed-away outputs")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	w := fraSmall()
	m := Machine{Procs: 2, AccMemBytes: 200}

	p := mustPlan(t, FRA, w, m)
	p.Tiles[0].Reads[0] = nil // drop reads
	if err := Verify(p, w); err == nil {
		t.Error("missing reads should fail Verify")
	}

	p = mustPlan(t, FRA, w, m)
	for ti := range p.Tiles {
		p.Tiles[ti].Ghosts[0] = nil
		p.Tiles[ti].Ghosts[1] = nil
	}
	if err := Verify(p, w); err == nil {
		t.Error("missing ghosts should fail Verify for FRA")
	}

	p = mustPlan(t, DA, w, m)
	for q := range p.Tiles[0].Forwards {
		p.Tiles[0].Forwards[q] = nil
	}
	if err := Verify(p, w); err == nil {
		t.Error("missing forwards should fail Verify for DA")
	}

	p = mustPlan(t, FRA, w, m)
	p.TileOf[0] = 1 - p.TileOf[0] // claim wrong tile
	if err := Verify(p, w); err == nil {
		t.Error("inconsistent TileOf should fail Verify")
	}

	p = mustPlan(t, DA, w, m)
	p.Tiles[0].Ghosts[0] = []int32{0}
	if err := Verify(p, w); err == nil {
		t.Error("DA with ghosts should fail Verify")
	}

	// The one coverage invariant, from both sides. Input 2 (node 0) projects
	// to outputs 1 and 3, homed on node 1: DA forwards it there once.
	p = mustPlan(t, DA, w, m)
	if got := p.Tiles[0].Forwards[0]; len(got) != 1 || got[0] != (Forward{Input: 2, Dest: 1}) {
		t.Fatalf("fixture: node 0 forwards %v, want input 2 to node 1", got)
	}
	p.Tiles[0].Forwards[0] = nil // the chunk reaches no holder of outputs 1, 3
	if err := Verify(p, w); err == nil {
		t.Error("a dropped forward should fail Verify")
	}
	// Under FRA node 0 already holds a ghost of output 1 and aggregates input
	// 2 into it; forwarding the chunk to the home as well counts it twice.
	p = mustPlan(t, FRA, w, m)
	ti := p.TileOf[1]
	p.Tiles[ti].Forwards[0] = []Forward{{Input: 2, Dest: 1}}
	if err := Verify(p, w); err == nil {
		t.Error("a forward to a second holder should fail Verify")
	}
	// The same forward listed twice delivers the chunk to the home twice.
	p = mustPlan(t, DA, w, m)
	p.Tiles[0].Forwards[0] = append(p.Tiles[0].Forwards[0], Forward{Input: 2, Dest: 1})
	if err := Verify(p, w); err == nil {
		t.Error("a duplicate forward should fail Verify")
	}
}

func TestEmptyWorkloadPlans(t *testing.T) {
	w := &Workload{}
	m := Machine{Procs: 4, AccMemBytes: 100}
	for _, s := range Strategies {
		p := mustPlan(t, s, w, m)
		if err := Verify(p, w); err != nil {
			t.Errorf("%v empty workload: %v", s, err)
		}
		if len(p.Tiles) != 0 {
			t.Errorf("%v: empty workload produced %d tiles", s, len(p.Tiles))
		}
	}
}

func TestOversizedChunkGetsOwnTile(t *testing.T) {
	w := &Workload{
		Outputs: []chunk.Meta{
			{ID: 0, MBR: space.R(0, 1), Bytes: 1000, Node: 0},
			{ID: 1, MBR: space.R(1, 2), Bytes: 50, Node: 0},
		},
	}
	m := Machine{Procs: 1, AccMemBytes: 100}
	for _, s := range Strategies {
		p := mustPlan(t, s, w, m)
		if err := Verify(p, w); err != nil {
			t.Errorf("%v oversized chunk: %v", s, err)
		}
	}
}

func TestSingleProcessorDegeneracy(t *testing.T) {
	// With one processor, all strategies coincide: no ghosts, no forwards.
	rng := rand.New(rand.NewSource(404))
	w := randWorkload(rng, 1)
	m := Machine{Procs: 1, AccMemBytes: capacityFor(w)}
	for _, s := range Strategies {
		p := mustPlan(t, s, w, m)
		st := ComputeStats(p, w)
		if st.GhostChunks != 0 || st.Forwards != 0 {
			t.Errorf("%v on 1 proc: ghosts=%d forwards=%d", s, st.GhostChunks, st.Forwards)
		}
	}
}

func TestCustomAccBytes(t *testing.T) {
	// Accumulators larger than their output chunks (e.g. sum+count pairs
	// per cell) change tiling: with AccBytes = 4x output bytes, FRA needs
	// about 4x the tiles.
	rng := rand.New(rand.NewSource(505))
	w := randWorkload(rng, 4)
	w.AccBytes = make([]int64, len(w.Outputs))
	for o := range w.Outputs {
		w.AccBytes[o] = 4 * w.Outputs[o].Bytes
	}
	m := Machine{Procs: 4, AccMemBytes: capacityFor(w)}
	for _, s := range Strategies {
		p := mustPlan(t, s, w, m)
		if err := Verify(p, w); err != nil {
			t.Fatalf("%v with custom AccBytes: %v", s, err)
		}
	}
	// Tiling honors AccBytes, not output bytes.
	small := &Workload{Outputs: w.Outputs, Inputs: w.Inputs, Targets: w.Targets}
	fraBig := mustPlan(t, FRA, w, m)
	fraSmall := mustPlan(t, FRA, small, m)
	if len(fraBig.Tiles) <= len(fraSmall.Tiles) {
		t.Errorf("4x accumulators gave %d tiles vs %d with 1x — tiling ignores AccBytes",
			len(fraBig.Tiles), len(fraSmall.Tiles))
	}
}

func TestQuickVerifyAcceptsAllGeneratedPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	trial := 0
	f := func() bool {
		trial++
		procs := 1 + rng.Intn(6)
		w := randWorkload(rng, procs)
		if rng.Float64() < 0.5 {
			w.AccBytes = make([]int64, len(w.Outputs))
			for o := range w.Outputs {
				w.AccBytes[o] = int64(10 + rng.Intn(500))
			}
		}
		m := Machine{Procs: procs, AccMemBytes: capacityFor(w)}
		s := Strategies[rng.Intn(len(Strategies))]
		pl, err := NewPlanner(m)
		if err != nil {
			return false
		}
		p, err := pl.Plan(s, w)
		if err != nil {
			return false
		}
		return Verify(p, w) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
