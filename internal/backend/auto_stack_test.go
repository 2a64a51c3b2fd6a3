package backend_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/backend"
	"adr/internal/core"
	"adr/internal/costmodel"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// startAutoCluster boots a mesh whose nodes persist their calibrations to
// per-node files, and returns the servers plus the calibration paths.
func startAutoCluster(t *testing.T, dir string, nodes int) ([]*backend.Server, []string) {
	t.Helper()
	buildFarmDir(t, dir, nodes)
	meshAddrs, meshLns := freeAddrs(t, nodes)
	servers := make([]*backend.Server, nodes)
	calibs := make([]string, nodes)
	startErr := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		calibs[i] = filepath.Join(dir, "calib", "node"+string(rune('0'+i))+".json")
		go func(i int) {
			s, err := backend.Start(backend.Config{
				Node: rpc.NodeID(i), MeshAddrs: meshAddrs, MeshListener: meshLns[i],
				ControlAddr: "127.0.0.1:0", DataDir: dir,
				CalibrationFile: calibs[i],
			})
			servers[i] = s
			startErr <- err
		}(i)
	}
	for i := 0; i < nodes; i++ {
		if err := <-startErr; err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	})
	return servers, calibs
}

func countOf(t *testing.T, chunks []*frontend.ChunkJSON) int64 {
	t.Helper()
	var total int64
	for _, c := range chunks {
		for _, it := range c.Items {
			v, err := apps.DecodeValue(it.Value)
			if err != nil {
				t.Fatal(err)
			}
			total += v
		}
	}
	return total
}

// TestAutoStrategyE2E drives a live AUTO query through the full stack: the
// front-end asks a node for calibrated estimates, the mesh executes under
// the chosen fixed strategy, and the done frame reports the selection with
// predicted-vs-actual time.
func TestAutoStrategyE2E(t *testing.T) {
	const nodes = 2
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "calib"), 0o755); err != nil {
		t.Fatal(err)
	}
	servers, calibs := startAutoCluster(t, dir, nodes)
	ctrl := make([]string, nodes)
	for i, s := range servers {
		ctrl[i] = s.ControlAddr()
	}
	fe, err := frontend.Start("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Warm-up under a fixed strategy: calibrates every node from its trace
	// and persists the calibration files.
	warm := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Kind: "raster", Op: "count", CellsPerDim: 2},
	}
	if _, _, err := client.Query(warm); err != nil {
		t.Fatal(err)
	}
	// Each node saves after it has flushed its done line, so the files may
	// trail the client's return by a moment: poll until each loads with the
	// warm-up folded in (a missing file loads as zero samples).
	for i, path := range calibs {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			c, err := costmodel.LoadCalibration(path)
			if err != nil {
				t.Errorf("node %d calibration file does not load: %v", i, err)
			} else if c.Samples() == 0 && time.Now().Before(deadline) {
				continue
			} else if c.Samples() == 0 {
				t.Errorf("node %d calibration not persisted to %s", i, path)
			}
			break
		}
	}

	// The AUTO query, lower-case to cover case-insensitive parsing e2e.
	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "auto",
		App: frontend.AppSpec{Kind: "raster", Op: "count", CellsPerDim: 2},
	}
	chunks, stats, err := client.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, chunks); got != 1500 {
		t.Errorf("AUTO query counted %d, want 1500", got)
	}
	sel := stats.Selection
	if sel == nil {
		t.Fatal("done frame carries no selection for an AUTO query")
	}
	switch sel.Strategy {
	case "FRA", "SRA", "DA", "HYBRID":
	default:
		t.Fatalf("selection names %q, want a fixed strategy", sel.Strategy)
	}
	if sel.Node < 0 || sel.Node >= nodes {
		t.Errorf("selection attributed to node %d", sel.Node)
	}
	if len(sel.Estimates) != 4 {
		t.Errorf("selection has %d estimates, want all 4 candidates", len(sel.Estimates))
	}
	if sel.PredictedSec <= 0 {
		t.Errorf("PredictedSec = %g", sel.PredictedSec)
	}
	if sel.ActualSec <= 0 {
		t.Errorf("ActualSec = %g (outcome not recorded)", sel.ActualSec)
	}
	// The selection survives into the assembled QueryTrace and its rendering.
	qt := stats.QueryTrace(1)
	if qt.Selection == nil {
		t.Fatal("QueryTrace lost the selection")
	}
	if !strings.Contains(qt.String(), "auto: chose "+sel.Strategy) {
		t.Errorf("trace rendering does not name the choice:\n%s", qt.String())
	}
}

// TestBackendRejectsUnresolvedAuto: a NodeRequest that still carries
// strategy AUTO at execution time must be refused — per-node calibrations
// differ, so letting each node resolve independently would diverge the mesh.
func TestBackendRejectsUnresolvedAuto(t *testing.T) {
	dir := t.TempDir()
	servers, _ := startAutoCluster(t, dir, 1)

	conn, err := net.Dial("tcp", servers[0].ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &frontend.NodeRequest{QueryID: 7, Spec: frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "AUTO",
		App: frontend.AppSpec{Kind: "raster", Op: "count", CellsPerDim: 2},
	}}
	if err := frontend.WriteJSON(conn, req); err != nil {
		t.Fatal(err)
	}
	var msg frontend.Message
	if err := frontend.ReadJSON(bufio.NewReader(conn), &msg); err != nil {
		t.Fatal(err)
	}
	if msg.Type != "error" {
		t.Fatalf("got %q frame, want error", msg.Type)
	}
	if !strings.Contains(msg.Error, "AUTO") {
		t.Errorf("error does not explain the AUTO refusal: %q", msg.Error)
	}
}

// TestParallelClientAuto: a parallel client is its own AUTO resolver — every
// surviving stream's stats must carry the same selection.
func TestParallelClientAuto(t *testing.T) {
	const nodes = 2
	dir := t.TempDir()
	servers, _ := startAutoCluster(t, dir, nodes)
	ctrl := make([]string, nodes)
	for i, s := range servers {
		ctrl[i] = s.ControlAddr()
	}
	pc, err := frontend.NewParallelClient(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "AUTO",
		App: frontend.AppSpec{Kind: "raster", Op: "count", CellsPerDim: 2},
	}
	streams, err := pc.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range streams {
		total += countOf(t, s.Chunks)
		if s.Stats == nil || s.Stats.Selection == nil {
			t.Fatalf("node %d stream has no selection", s.Node)
		}
		if got := s.Stats.Selection.Strategy; got == "AUTO" || got == "" {
			t.Errorf("node %d stream selection %q not resolved", s.Node, got)
		}
	}
	if total != 1500 {
		t.Errorf("AUTO parallel query counted %d, want 1500", total)
	}
	// The caller's spec must not have been mutated by resolution.
	if spec.Strategy != "AUTO" {
		t.Errorf("resolution mutated the caller's spec to %q", spec.Strategy)
	}
}

// TestAutoSelectionSameOnEveryPath: for one farm and one AUTO spec, the
// embedded repository, a Client behind the front-end and a ParallelClient
// all report a selection of the same shape — a fixed-strategy winner that
// heads the estimates, all four candidates priced, the outcome recorded —
// and adr_node_auto_selected_total counts the embedded resolution too (it
// used to count only estimates a daemon served).
func TestAutoSelectionSameOnEveryPath(t *testing.T) {
	const nodes = 2
	dir := t.TempDir()
	servers, _ := startAutoCluster(t, dir, nodes)
	ctrl := make([]string, nodes)
	for i, s := range servers {
		ctrl[i] = s.ControlAddr()
	}
	selected := func() (n int64) {
		for _, s := range plan.Strategies {
			n += metrics.Default.Counter(`adr_node_auto_selected_total{strategy="` + s.String() + `"}`).Value()
		}
		return n
	}
	check := func(path string, sel *metrics.Selection) {
		t.Helper()
		if sel == nil {
			t.Fatalf("%s: no selection", path)
		}
		if s, err := plan.ParseStrategy(sel.Strategy); err != nil || s == plan.Auto {
			t.Errorf("%s: winner %q is not a fixed strategy", path, sel.Strategy)
		}
		priced := map[string]bool{}
		for _, e := range sel.Estimates {
			priced[e.Strategy] = true
		}
		if len(sel.Estimates) != 4 || len(priced) != 4 || sel.Estimates[0].Strategy != sel.Strategy {
			t.Errorf("%s: estimates %+v, want the four strategies, winner %s first", path, sel.Estimates, sel.Strategy)
		}
		if sel.PredictedSec <= 0 || sel.ActualSec <= 0 {
			t.Errorf("%s: predicted %g s, actual %g s, want both recorded", path, sel.PredictedSec, sel.ActualSec)
		}
	}

	repo, err := core.NewRepository(core.Options{Nodes: nodes, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	_, datasets, err := layout.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range datasets {
		if err := repo.RegisterDataset(ds); err != nil {
			t.Fatal(err)
		}
	}
	before := selected()
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.Auto,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("embedded", res.Selection)
	if got := selected() - before; got != 1 {
		t.Errorf("embedded AUTO moved adr_node_auto_selected_total by %d, want 1", got)
	}

	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "AUTO",
		App: frontend.AppSpec{Kind: "raster", Op: "count", CellsPerDim: 2},
	}
	fe, err := frontend.Start("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, stats, err := client.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	check("front-end", stats.Selection)

	pc, err := frontend.NewParallelClient(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := pc.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		check(fmt.Sprintf("parallel client, node %d", s.Node), s.Stats.Selection)
	}
}
