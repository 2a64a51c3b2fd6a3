package plan_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"adr/internal/emulator"
	"adr/internal/plan"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the planner as it stands")

const goldenPath = "testdata/plans.golden"

// hashPlan feeds everything an executor reads of a plan — Tiles, TileOf,
// Home — into h, every list length-prefixed so no two plans serialize alike.
func hashPlan(h hash.Hash, p *plan.Plan) {
	var buf [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	list := func(l []int32) {
		put(int32(len(l)))
		for _, v := range l {
			put(v)
		}
	}
	put(int32(len(p.Tiles)))
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		list(t.Outputs)
		put(int32(len(t.Locals)))
		for q := range t.Locals {
			list(t.Locals[q])
			list(t.Ghosts[q])
			list(t.Reads[q])
			put(int32(len(t.Forwards[q])))
			for _, f := range t.Forwards[q] {
				put(f.Input)
				put(f.Dest)
			}
		}
	}
	list(p.TileOf)
	list(p.Home)
}

// TestPlansUnchanged holds the planner to the plans it produced when
// testdata/plans.golden was recorded (first at commit c5f0c75, from the four
// separate planners the single tiling loop replaced): the emulator's three
// application classes x machine sizes x accumulator memories x every strategy,
// plus seeded random workloads with and without an excluded processor. A
// deliberate change to what a strategy plans is re-recorded with
//
//	go test ./internal/plan -run TestPlansUnchanged -update
func TestPlansUnchanged(t *testing.T) {
	type planCase struct {
		pl *plan.Planner
		w  *plan.Workload
	}
	got := make(map[string]string)
	// digest records one line per strategy: the hash of its plans of cases.
	digest := func(name string, cases ...planCase) {
		for _, s := range plan.Strategies {
			h := sha256.New()
			for _, c := range cases {
				p, err := c.pl.Plan(s, c.w)
				if err != nil {
					t.Fatalf("%s/%v: %v", name, s, err)
				}
				hashPlan(h, p)
			}
			got[fmt.Sprintf("%s/%v", name, s)] = fmt.Sprintf("%x", h.Sum(nil)[:12])
		}
	}
	planner := func(m plan.Machine) *plan.Planner {
		pl, err := plan.NewPlanner(m)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}

	for _, app := range emulator.Apps {
		for _, procs := range []int{4, 8, 16} {
			sc, err := emulator.Generate(emulator.Params{App: app, Procs: procs, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, mem := range []int64{1 << 20, 64 << 10} {
				digest(fmt.Sprintf("%v/procs%d/mem%d", app, procs, mem),
					planCase{planner(plan.Machine{Procs: procs, AccMemBytes: mem}), sc.Workload})
			}
		}
	}

	// Random workloads, 150 per line; with exclude, one processor is dead and
	// its chunks moved off it before planning.
	for _, exclude := range []bool{false, true} {
		rng := rand.New(rand.NewSource(20))
		var cases []planCase
		for trial := 0; trial < 150; trial++ {
			procs := 2 + rng.Intn(7)
			w := plan.RandWorkload(rng, procs)
			pl := planner(plan.Machine{Procs: procs, AccMemBytes: plan.CapacityFor(w)})
			if exclude {
				pl.Exclude = plan.WithoutProc(w, int32(rng.Intn(procs)), procs)
			}
			cases = append(cases, planCase{pl, w})
		}
		if exclude {
			digest("random-exclude", cases...)
		} else {
			digest("random", cases...)
		}
	}

	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := 0
	for sc := bufio.NewScanner(f); sc.Scan(); want++ {
		name, sum, _ := strings.Cut(sc.Text(), " ")
		if got[name] != sum {
			t.Errorf("%s: plan digest %q, recorded %s", name, got[name], sum)
		}
	}
	if want != len(got) {
		t.Errorf("%d recorded digests, %d computed: re-record with -update", want, len(got))
	}
}
