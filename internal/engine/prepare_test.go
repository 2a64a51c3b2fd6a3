package engine

import (
	"fmt"
	"testing"

	"adr/internal/chunk"
	"adr/internal/plan"
	"adr/internal/space"
)

// BenchmarkPrepare times the per-query fixed cost RunNodeTraced adds on every
// node before its first tile: deriving the node's own share of the plan
// (plan.ShareOf). Four processors, one
// output per eight inputs, every input projecting to two outputs.
func BenchmarkPrepare(b *testing.B) {
	const procs = 4
	for _, inputs := range []int{8, 64, 1024} {
		outputs := max(4, inputs/8)
		w := &plan.Workload{}
		for o := 0; o < outputs; o++ {
			w.Outputs = append(w.Outputs, chunk.Meta{
				ID: chunk.ID(o), MBR: space.R(float64(o), float64(o+1), 0, 1), Bytes: 64, Node: int32(o % procs),
			})
		}
		for i := 0; i < inputs; i++ {
			a, c := int32(i%outputs), int32((i+1)%outputs)
			w.Inputs = append(w.Inputs, chunk.Meta{ID: chunk.ID(i), Bytes: 1024, Node: int32(i % procs)})
			w.Targets = append(w.Targets, []int32{min(a, c), max(a, c)})
		}
		planner, err := plan.NewPlanner(plan.Machine{Procs: procs, AccMemBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []plan.Strategy{plan.FRA, plan.DA} {
			p, err := planner.Plan(s, w)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/inputs=%d", s, inputs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					plan.ShareOf(p, w, 1)
				}
			})
		}
	}
}
