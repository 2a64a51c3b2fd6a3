package plan

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSharesMatchTileLists holds the one derivation to a brute-force reading
// of the tile lists it replaces: for random workloads under every strategy,
// each processor's share — own-share (ShareOf) and scheduled alike — lists
// exactly the sends the tile prescribes, counts exactly the aggregations its
// reads trigger here, and expects exactly the arrivals the other processors'
// sends add up to.
func TestSharesMatchTileLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	for trial := 0; trial < 40; trial++ {
		procs := 1 + rng.Intn(8)
		w := randWorkload(rng, procs)
		m := Machine{Procs: procs, AccMemBytes: capacityFor(w)}
		for _, s := range Strategies {
			p := mustPlan(t, s, w, m)
			sched := Schedule(p, w)
			var pairs int
			for q := int32(0); int(q) < procs; q++ {
				own := ShareOf(p, w, q)
				for ti := range p.Tiles {
					tile, sh := &p.Tiles[ti], sched[q][ti]
					holds := func(proc, o int32) bool {
						for _, c := range append(append([]int32{}, tile.Locals[proc]...), tile.Ghosts[proc]...) {
							if c == o {
								return true
							}
						}
						return false
					}
					pairsAt := func(proc, i int32) (n int32) {
						for _, o := range w.Targets[i] {
							if p.TileOf[o] == int32(ti) && holds(proc, o) {
								n++
							}
						}
						return n
					}
					var want Share
					want.Locals, want.Ghosts, want.Reads = tile.Locals[q], tile.Ghosts[q], tile.Reads[q]
					if len(tile.Forwards[q]) > 0 {
						want.Forward = make([][]Dest, len(want.Reads))
					}
					for k, i := range want.Reads {
						for _, f := range tile.Forwards[q] {
							if f.Input == i {
								want.Forward[k] = append(want.Forward[k], Dest{To: f.Dest})
							}
						}
					}
					for _, o := range tile.Outputs {
						owner, home := w.Outputs[o].Node, p.Home[o]
						if owner == q {
							holders := []int32{home}
							for g := int32(0); int(g) < procs; g++ {
								for _, c := range tile.Ghosts[g] {
									if c == o {
										holders = append(holders, g)
									}
								}
							}
							want.Owned = append(want.Owned, o)
							want.InitHolders = append(want.InitHolders, holders)
							if home != q {
								want.ExpectFinals++
							}
						} else if holds(q, o) {
							want.ExpectInits++
						}
					}
					for g := range tile.Ghosts {
						for _, o := range tile.Ghosts[g] {
							if p.Home[o] == q {
								want.ExpectGhosts++
							}
						}
						for _, f := range tile.Forwards[g] {
							if f.Dest == q {
								want.ExpectInputs++
							}
						}
					}
					want.ReadPairs = make([]int32, len(want.Reads))
					for k, i := range want.Reads {
						want.ReadPairs[k] = pairsAt(q, i)
					}
					// ShareOf counts its own pairs but leaves the forwards'
					// Dest.Pairs at 0: only Schedule prices a receiver.
					if got := own[ti]; !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %v proc %d tile %d: ShareOf\n got %+v\nwant %+v", trial, s, q, ti, got, want)
					}
					for k, i := range want.Reads {
						pairs += int(want.ReadPairs[k])
						for j, d := range want.Dests(k) {
							want.Forward[k][j].Pairs = pairsAt(d.To, i)
							pairs += int(want.Forward[k][j].Pairs)
						}
					}
					if !reflect.DeepEqual(sh, want) {
						t.Fatalf("trial %d %v proc %d tile %d: Schedule\n got %+v\nwant %+v", trial, s, q, ti, sh, want)
					}
				}
			}
			// Every (input, target) aggregation happens exactly once, somewhere.
			var wantPairs int
			for _, ts := range w.Targets {
				wantPairs += len(ts)
			}
			if pairs != wantPairs {
				t.Fatalf("trial %d %v: shares aggregate %d pairs, workload has %d", trial, s, pairs, wantPairs)
			}
		}
	}
	if ShareOf(mustPlan(t, FRA, fraSmall(), Machine{Procs: 2, AccMemBytes: 200}), fraSmall(), 2) != nil {
		t.Error("ShareOf an out-of-range processor should be nil")
	}
}

// TestVerifyRejectsForeignAllocations: Share derivation indexes a tile's
// allocations by output, so Verify must refuse a tile that allocates another
// tile's output (or one out of range) before any consumer derives from it.
func TestVerifyRejectsForeignAllocations(t *testing.T) {
	w := fraSmall()
	m := Machine{Procs: 2, AccMemBytes: 200}
	p := mustPlan(t, FRA, w, m)
	if len(p.Tiles) < 2 {
		t.Fatalf("fixture has %d tile(s), want >= 2", len(p.Tiles))
	}
	foreign := p.Tiles[1].Outputs[0]
	p.Tiles[0].Ghosts[0] = append(p.Tiles[0].Ghosts[0], foreign)
	if err := Verify(p, w); err == nil {
		t.Error("a ghost of another tile's output should fail Verify")
	}
	p = mustPlan(t, FRA, w, m)
	p.Tiles[0].Ghosts[1] = append(p.Tiles[0].Ghosts[1], int32(len(w.Outputs)))
	if err := Verify(p, w); err == nil {
		t.Error("an out-of-range ghost should fail Verify")
	}
}
