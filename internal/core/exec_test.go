package core_test

import (
	"testing"

	"adr/internal/apps"
	"adr/internal/core"
	"adr/internal/costmodel"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// TestAutoPricesWithoutExcluded: Prepare's AUTO branch prices every
// candidate on the mesh the query will run on. With node k excluded, the FRA
// estimate is Predict of the FRA plan made without k (plan.Degrade, then
// Planner.Exclude), not of a plan that still puts ghosts on the dead node.
func TestAutoPricesWithoutExcluded(t *testing.T) {
	const nodes, dead = 3, 1
	repo := buildEnvOpts(t, core.Options{Nodes: nodes, Replicas: 2}, 2000, 1)
	e := core.Exec{
		Machine: repo.Machine(), DisksPerNode: repo.Farm().DisksPerNode, Calib: &costmodel.Calibration{},
		Resolve: func(q *core.Query) (in, out *layout.Dataset, mapper space.RectMapper, err error) {
			in, _ = repo.Dataset(q.Input)
			out, _ = repo.Dataset(q.Output)
			return in, out, space.IdentityMapper{}, nil
		},
	}
	q := &core.Query{Input: "sensor", Output: "raster", Strategy: plan.Auto, App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}}
	_, sel, err := e.Prepare(q, []rpc.NodeID{dead})
	if err != nil {
		t.Fatal(err)
	}

	ex := map[int32]bool{dead: true}
	w, err := repo.BuildWorkload(q)
	if err != nil {
		t.Fatal(err)
	}
	if w, err = plan.Degrade(e.Machine, w, ex, e.DisksPerNode); err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewPlanner(e.Machine)
	if err != nil {
		t.Fatal(err)
	}
	planner.Exclude = ex
	p, err := planner.Plan(plan.FRA, w)
	if err != nil {
		t.Fatal(err)
	}
	m, c := e.Calib.Model(nodes, e.DisksPerNode)
	want, err := costmodel.Predict(p, w, m, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range sel.Estimates {
		if est.Strategy != "FRA" {
			continue
		}
		if est.PredictedSec != want.ExecSec || est.CommBytes != want.CommBytes {
			t.Errorf("FRA priced at %g s, %d B; the plan without node %d predicts %g s, %d B",
				est.PredictedSec, est.CommBytes, dead, want.ExecSec, want.CommBytes)
		}
		return
	}
	t.Fatalf("no FRA estimate in %+v", sel.Estimates)
}
