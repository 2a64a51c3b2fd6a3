// Package experiments regenerates the paper's evaluation (§4): Table 1's
// application characteristics and every panel of Figures 8 and 9, by
// generating emulator scenarios, planning them with each strategy, and
// executing the plans on the simulated IBM SP (internal/simadr).
//
// One experiment cell = (application, strategy, processor count, scaling
// mode). Fixed scaling holds the input dataset at Table 1's minimum while
// processors vary; scaled scaling grows the input proportionally to the
// processor count (Scale = Procs/8), holding per-processor data constant —
// exactly the two columns of Figure 8.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"adr/internal/costmodel"
	"adr/internal/emulator"
	"adr/internal/plan"
	"adr/internal/simadr"
)

// Scaling selects the experiment's scaling mode.
type Scaling int

const (
	// Fixed holds the input dataset at its minimum size.
	Fixed Scaling = iota
	// Scaled grows the input dataset with the processor count.
	Scaled
)

// String names the mode.
func (s Scaling) String() string {
	if s == Scaled {
		return "scaled"
	}
	return "fixed"
}

// Config parameterizes a sweep.
type Config struct {
	// Procs lists the processor counts (paper: 8, 16, 32, 64, 128).
	Procs []int
	// Strategies to compare (paper: FRA, SRA, DA).
	Strategies []plan.Strategy
	// AccMemBytes per processor for tiling (DESIGN.md default 8 MiB).
	AccMemBytes int64
	// Seed for emulator generation.
	Seed int64
	// Machine overrides; zero fields use simadr.DefaultMachine.
	DiskSeekSec, DiskBWBytes, NetLatencySec, NetBWBytes float64
	// ScaleDivisor relates processor count to dataset scale in Scaled mode
	// (paper: scale = procs/8). Also divides the Fixed dataset: a divisor
	// of 8 with BaseScale 1 reproduces the paper; larger BaseScale shrink
	// factors make quick runs cheaper.
	ScaleDivisor float64
	// BaseScale scales every dataset uniformly (1 = paper size); < 1 for
	// quick runs.
	BaseScale float64
}

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Procs:        []int{8, 16, 32, 64, 128},
		Strategies:   []plan.Strategy{plan.FRA, plan.SRA, plan.DA},
		AccMemBytes:  8 << 20,
		Seed:         1,
		ScaleDivisor: 8,
		BaseScale:    1,
	}
}

// QuickConfig is a reduced sweep for smoke tests (~1/8-size datasets,
// three processor counts).
func QuickConfig() Config {
	c := DefaultConfig()
	c.Procs = []int{8, 16, 32}
	c.BaseScale = 0.125
	return c
}

// Point is one experiment cell's measurements.
type Point struct {
	App      emulator.App
	Strategy plan.Strategy
	Procs    int
	Scaling  Scaling

	ExecSec float64
	// Per-processor communication volume (Fig 9 a-b), bytes.
	MaxCommBytes int64
	AvgCommBytes float64
	// Per-processor computation time (Fig 9 c-d), seconds.
	MaxComputeSec float64
	AvgComputeSec float64

	Tiles        int
	GhostChunks  int
	Forwards     int
	RereadInputs int
	SimEvents    int64
}

func (c Config) machine(procs int) simadr.Machine {
	m := simadr.DefaultMachine(procs)
	if c.DiskSeekSec > 0 {
		m.DiskSeekSec = c.DiskSeekSec
	}
	if c.DiskBWBytes > 0 {
		m.DiskBWBytes = c.DiskBWBytes
	}
	if c.NetLatencySec > 0 {
		m.NetLatencySec = c.NetLatencySec
	}
	if c.NetBWBytes > 0 {
		m.NetBWBytes = c.NetBWBytes
	}
	return m
}

func (c Config) scaleFor(procs int, scaling Scaling) float64 {
	base := c.BaseScale
	if base <= 0 {
		base = 1
	}
	if scaling == Scaled {
		div := c.ScaleDivisor
		if div <= 0 {
			div = 8
		}
		return base * float64(procs) / div
	}
	return base
}

// scenarioCache memoizes emulator generation: a (app, procs, scale) triple
// is shared by all strategies in a sweep.
type scenarioKey struct {
	app   emulator.App
	procs int
	scale float64
	seed  int64
}

var (
	scenarioMu    sync.Mutex
	scenarioCache = map[scenarioKey]*emulator.Scenario{}
)

func (c Config) scenario(app emulator.App, procs int, scaling Scaling) (*emulator.Scenario, error) {
	key := scenarioKey{app: app, procs: procs, scale: c.scaleFor(procs, scaling), seed: c.Seed}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if s, ok := scenarioCache[key]; ok {
		return s, nil
	}
	s, err := emulator.Generate(emulator.Params{
		App: app, Procs: procs, Scale: key.scale, Seed: c.Seed,
	})
	if err != nil {
		return nil, err
	}
	scenarioCache[key] = s
	return s, nil
}

// RunCell executes one experiment cell.
func (c Config) RunCell(app emulator.App, strategy plan.Strategy, procs int, scaling Scaling) (Point, error) {
	pt := Point{App: app, Strategy: strategy, Procs: procs, Scaling: scaling}
	s, err := c.scenario(app, procs, scaling)
	if err != nil {
		return pt, err
	}
	planner, err := plan.NewPlanner(plan.Machine{Procs: procs, AccMemBytes: c.AccMemBytes})
	if err != nil {
		return pt, err
	}
	p, err := planner.Plan(strategy, s.Workload)
	if err != nil {
		return pt, err
	}
	stats := plan.ComputeStats(p, s.Workload)
	res, err := simadr.Simulate(p, s.Workload, simadr.Options{
		Machine: c.machine(procs),
		Costs:   s.Costs,
		Overlap: true,
	})
	if err != nil {
		return pt, err
	}
	pt.ExecSec = res.ExecSec
	pt.MaxCommBytes = res.MaxCommBytes()
	pt.AvgCommBytes = res.AvgCommBytes()
	pt.MaxComputeSec = res.MaxComputeSec()
	pt.AvgComputeSec = res.AvgComputeSec()
	pt.Tiles = stats.Tiles
	pt.GhostChunks = stats.GhostChunks
	pt.Forwards = stats.Forwards
	pt.RereadInputs = stats.RereadInputs
	pt.SimEvents = res.Events
	return pt, nil
}

// SelectStrategy runs the §6 cost model on a cell's workload and returns
// the strategy it predicts fastest.
func (c Config) SelectStrategy(app emulator.App, procs int, scaling Scaling) (plan.Strategy, error) {
	s, err := c.scenario(app, procs, scaling)
	if err != nil {
		return 0, err
	}
	machine := plan.Machine{Procs: procs, AccMemBytes: c.AccMemBytes}
	p, _, err := costmodel.Select(s.Workload, machine, c.machine(procs), s.Costs, nil)
	if err != nil {
		return 0, err
	}
	return p.Strategy, nil
}

// Sweep runs every (strategy, procs) cell for one application and scaling.
func (c Config) Sweep(app emulator.App, scaling Scaling) ([]Point, error) {
	var points []Point
	for _, procs := range c.Procs {
		for _, strat := range c.Strategies {
			pt, err := c.RunCell(app, strat, procs, scaling)
			if err != nil {
				return nil, fmt.Errorf("%v/%v/%d/%v: %w", app, strat, procs, scaling, err)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// Table1Row is one application's measured characteristics at minimum and
// maximum scale.
type Table1Row struct {
	App                  emulator.App
	MinChunks, MaxChunks int
	MinBytes, MaxBytes   int64
	OutChunks            int
	OutBytes             int64
	MinFanIn, MaxFanIn   float64
	MinFanOut, MaxFanOut float64
	CostsMs              [4]float64
}

// Table1 measures the emulators at both ends of the paper's scaling range.
func (c Config) Table1() ([]Table1Row, error) {
	minProcs := c.Procs[0]
	maxProcs := c.Procs[len(c.Procs)-1]
	var rows []Table1Row
	for _, app := range emulator.Apps {
		lo, err := c.scenario(app, minProcs, Fixed)
		if err != nil {
			return nil, err
		}
		hi, err := c.scenario(app, maxProcs, Scaled)
		if err != nil {
			return nil, err
		}
		cl, ch := lo.Measure(), hi.Measure()
		rows = append(rows, Table1Row{
			App:       app,
			MinChunks: cl.InputChunks, MaxChunks: ch.InputChunks,
			MinBytes: cl.InputBytes, MaxBytes: ch.InputBytes,
			OutChunks: cl.OutputChunks, OutBytes: cl.OutputBytes,
			MinFanIn: cl.AvgFanIn, MaxFanIn: ch.AvgFanIn,
			MinFanOut: cl.AvgFanOut, MaxFanOut: ch.AvgFanOut,
			CostsMs: [4]float64{
				lo.Costs.Init * 1000, lo.Costs.LR * 1000,
				lo.Costs.GC * 1000, lo.Costs.OH * 1000,
			},
		})
	}
	return rows, nil
}

// FormatTable renders a sweep as an aligned text table with one row per
// processor count and one column per strategy.
func FormatTable(points []Point, metric func(Point) float64, unit string) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	procsSet := map[int]bool{}
	stratSet := map[plan.Strategy]bool{}
	for _, p := range points {
		procsSet[p.Procs] = true
		stratSet[p.Strategy] = true
	}
	var procs []int
	for p := range procsSet {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	var strats []plan.Strategy
	for s := range stratSet {
		strats = append(strats, s)
	}
	sort.Slice(strats, func(i, j int) bool { return strats[i] < strats[j] })

	cell := map[[2]int]float64{}
	for _, p := range points {
		cell[[2]int{p.Procs, int(p.Strategy)}] = metric(p)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "procs")
	for _, s := range strats {
		fmt.Fprintf(&b, "%12s", s.String()+unit)
	}
	b.WriteByte('\n')
	for _, pr := range procs {
		fmt.Fprintf(&b, "%-6d", pr)
		for _, s := range strats {
			fmt.Fprintf(&b, "%12.2f", cell[[2]int{pr, int(s)}])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders points as CSV with all metrics.
func CSV(points []Point) string {
	var b strings.Builder
	b.WriteString("app,strategy,procs,scaling,exec_sec,max_comm_mb,avg_comm_mb,max_compute_sec,avg_compute_sec,tiles,ghosts,forwards,rereads\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%.3f,%.2f,%.2f,%.3f,%.3f,%d,%d,%d,%d\n",
			p.App, p.Strategy, p.Procs, p.Scaling,
			p.ExecSec, float64(p.MaxCommBytes)/1e6, p.AvgCommBytes/1e6,
			p.MaxComputeSec, p.AvgComputeSec,
			p.Tiles, p.GhostChunks, p.Forwards, p.RereadInputs)
	}
	return b.String()
}
