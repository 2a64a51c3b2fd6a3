package core

import (
	"adr/internal/costmodel"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// Exec is the back-end half of the query path — the paper's query planning
// service in front of its query execution service (Fig 2, §2.1) — as the
// steps every executed query takes, in order:
//
//	Prepare    catalog lookup → BuildWorkload → the fixed strategy's plan, or
//	           for AUTO the estimate step's winner (every fixed strategy
//	           priced with the calibrated cost model) → the engine.Config
//	(run)      engine.RunNodeTraced on each node's Dispatcher view of a fresh
//	           query id, over the long-lived in-process mesh (Repository: every
//	           node, through engine.Mesh) or TCP mesh (backend.Server: one node)
//	Observe    fold the measured traces into the calibration
//
// Repository (every node in this process) and backend.Server (one node of a
// TCP mesh) each hold one Exec and run a query the same way. Only the daemon
// path ever prepares with a non-empty exclusion set: the embedded
// Repository's nodes are goroutine groups of one process, and none dies
// alone.
type Exec struct {
	// Machine is what plans are built for; identical on every node of a mesh.
	Machine      plan.Machine
	DisksPerNode int
	// Node names the processor whose Calib prices estimates.
	Node  rpc.NodeID
	Calib *costmodel.Calibration
	// Resolve looks the query's datasets up in the owner's catalog and picks
	// its mapping function.
	Resolve func(q *Query) (in, out *layout.Dataset, mapper space.RectMapper, err error)
}

// autoSelected counts how often the calibrated cost model picked each
// strategy, whichever caller asked.
var autoSelected = func() map[plan.Strategy]*metrics.Counter {
	m := make(map[plan.Strategy]*metrics.Counter)
	for _, s := range plan.Strategies {
		m[s] = metrics.Default.Counter(`adr_node_auto_selected_total{strategy="` + s.String() + `"}`)
	}
	return m
}()

func (e *Exec) workload(q *Query) (*plan.Workload, error) {
	in, out, mapper, err := e.Resolve(q)
	if err != nil {
		return nil, err
	}
	return BuildWorkload(in, out, q.InputBox, q.OutputBox, mapper)
}

func (e *Exec) plan(s plan.Strategy, w *plan.Workload, exclude map[int32]bool) (*plan.Plan, error) {
	planner, err := plan.NewPlanner(e.Machine)
	if err != nil {
		return nil, err
	}
	planner.Exclude = exclude
	return planner.Plan(s, w)
}

// Prepare plans q and returns the engine configuration to run it with,
// lacking only the caller's result sink (OnResult). exclude lists the
// processors the resolver knows dead: the workload is remapped onto their
// chunks' surviving replica holders (plan.Degrade, which fails with a
// *plan.NoHolderError when a chunk has none) and planned without them
// (plan.Planner.Exclude). Every node derives the same plan from the shared
// catalog and the same set, exactly as the fault-free plan is derived. AUTO
// is resolved here, with this Exec's calibration, every candidate planned
// without the same set, and the selection (winner first) returned for
// Observe to close. A mesh node must not run what it resolved — per-node
// calibrations differ, so the nodes could pick different winners — and
// prepares AUTO only to answer an estimate request with the selection.
func (e *Exec) Prepare(q *Query, exclude []rpc.NodeID) (engine.Config, *metrics.Selection, error) {
	w, err := e.workload(q)
	if err != nil {
		return engine.Config{}, nil, err
	}
	var ex map[int32]bool
	if len(exclude) > 0 {
		ex = make(map[int32]bool, len(exclude))
		for _, id := range exclude {
			ex[int32(id)] = true
		}
		if w, err = plan.Degrade(e.Machine, w, ex, e.DisksPerNode); err != nil {
			return engine.Config{}, nil, err
		}
	}
	var p *plan.Plan
	var sel *metrics.Selection
	if q.Strategy == plan.Auto {
		m, costs := e.Calib.Model(e.Machine.Procs, e.DisksPerNode)
		var ests []costmodel.Estimate
		if p, ests, err = costmodel.Select(w, e.Machine, m, costs, ex); err == nil {
			autoSelected[p.Strategy].Inc()
			sel = costmodel.NewSelection(int(e.Node), ests)
		}
	} else {
		p, err = e.plan(q.Strategy, w, ex)
	}
	if err != nil {
		return engine.Config{}, nil, err
	}
	cfg := engine.Config{
		Plan:          p,
		Workload:      w,
		App:           q.App,
		InputDataset:  q.Input,
		OutputDataset: q.Output,
		ResultDataset: q.ResultDataset,
		Exclude:       exclude,
	}
	return cfg, sel, nil
}

// Observe folds the traces of a successful run of cfg's plan into the
// calibration, so the next estimate prices plans with live rates, and — when
// Prepare resolved AUTO — closes the prediction loop with the slowest node's
// wall time. The I and OH phase timings are divided by the op counts of the
// node's share of the plan: the accumulators it initialized, the outputs it
// finalized.
func (e *Exec) Observe(cfg *engine.Config, sel *metrics.Selection, traces ...metrics.NodeTrace) {
	for _, tr := range traces {
		s := costmodel.Sample{Trace: tr}
		for _, sh := range plan.ShareOf(cfg.Plan, cfg.Workload, int32(tr.Node)) {
			s.InitOps += int64(sh.Allocs())
			s.OutputOps += int64(len(sh.Locals))
		}
		e.Calib.Observe(s)
	}
	costmodel.RecordOutcome(sel, (&metrics.QueryTrace{Nodes: traces}).MaxWall().Seconds())
}
