package costmodel

import (
	"fmt"
	"testing"

	"adr/internal/chunk"
	"adr/internal/plan"
	"adr/internal/simadr"
	"adr/internal/space"
)

// BenchmarkSelect times AUTO's per-query fixed cost: every fixed strategy
// planned once and priced over the shared derivation. Four processors, one
// output per eight inputs (at least two), every input projecting to two.
func BenchmarkSelect(b *testing.B) {
	const procs = 4
	machine := plan.Machine{Procs: procs, AccMemBytes: 8 << 20}
	for _, inputs := range []int{4, 8, 64, 1024} {
		outputs := max(2, inputs/8)
		w := &plan.Workload{}
		for o := 0; o < outputs; o++ {
			w.Outputs = append(w.Outputs, chunk.Meta{
				ID: chunk.ID(o), MBR: space.R(float64(o), float64(o+1), 0, 1), Bytes: 64, Node: int32(o % procs),
			})
		}
		for i := 0; i < inputs; i++ {
			a, c := int32(i%outputs), int32((i+1)%outputs)
			w.Inputs = append(w.Inputs, chunk.Meta{ID: chunk.ID(i), Bytes: 16 << 10, Node: int32(i % procs), Disk: int32(i % procs)})
			w.Targets = append(w.Targets, []int32{min(a, c), max(a, c)})
		}
		b.Run(fmt.Sprintf("inputs=%d", inputs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Select(w, machine, simadr.DefaultMachine(procs), SeedCosts(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
