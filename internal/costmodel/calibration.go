package costmodel

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"adr/internal/metrics"
	"adr/internal/simadr"
)

// Calibration learns the resource rates the cost model prices plans with
// from the machine actually serving traffic, instead of the DESIGN.md
// era-constants. Every executed query's NodeTrace carries the signals:
//
//   - disk bandwidth:  DiskReadBytes / DiskReadNanos (reads that actually
//     hit storage — cache hits are excluded)
//   - link bandwidth:  BytesSent / NetSendNanos (effective, stalls included)
//   - per-op compute:  PhaseNanos[LR]/AggOps, PhaseNanos[GC]/CombineOps,
//     and PhaseNanos[I]/PhaseNanos[OH] over the op counts of the node's
//     plan.Share (allocations / locals)
//
// Each rate is tracked as an exponentially weighted moving average, so the
// model follows the hardware through warm caches, contention and upgrades.
// A Calibration is safe for concurrent use and serializes to JSON
// (adr-node -calibration-file), so restarts keep the learned rates.
type Calibration struct {
	mu    sync.Mutex
	state calibState
}

// calibState is the persisted portion of a Calibration. Zero fields mean
// "not yet observed" and fall back to the seed model.
type calibState struct {
	// Bandwidths in bytes/sec.
	DiskBWBytes float64 `json:"disk_bw_bytes,omitempty"`
	NetBWBytes  float64 `json:"net_bw_bytes,omitempty"`
	// Per-operation compute costs in seconds.
	InitSecPerOp float64 `json:"init_sec_per_op,omitempty"`
	LRSecPerOp   float64 `json:"lr_sec_per_op,omitempty"`
	GCSecPerOp   float64 `json:"gc_sec_per_op,omitempty"`
	OHSecPerOp   float64 `json:"oh_sec_per_op,omitempty"`
	// Samples counts the traces folded in.
	Samples int64 `json:"samples"`
}

// defaultAlpha is the EWMA weight of the newest sample: heavy enough that a
// dozen queries dominate the estimate, light enough that one outlier (a
// cold cache, a GC pause) does not.
const defaultAlpha = 0.3

// SeedCosts are the per-op compute costs assumed before any observation:
// microsecond-scale, the order of the live raster apps' per-chunk work (the
// paper's Table 1 costs belong to the simulated applications, not to this
// process).
func SeedCosts() simadr.Costs {
	return simadr.Costs{Init: 20e-6, LR: 50e-6, GC: 20e-6, OH: 20e-6}
}

// Sample is one node's measured execution plus the op counts the plan
// assigned it (summed over its plan.ShareOf); zero op counts skip the
// Init/OH signals.
type Sample struct {
	Trace metrics.NodeTrace
	// InitOps is the number of accumulator chunks the node initialized,
	// OutputOps the number of output chunks it finalized.
	InitOps, OutputOps int64
}

// ewma folds sample into cur with weight defaultAlpha; a zero cur adopts the
// sample outright (first observation).
func ewma(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	return defaultAlpha*sample + (1-defaultAlpha)*cur
}

// Observe folds one node's measured execution into the calibration. Signals
// whose denominators are zero (no aggregation ran, everything was cached)
// are skipped, so partial traces never corrupt the rates.
func (c *Calibration) Observe(s Sample) {
	t := &s.Trace.Totals
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.state
	if t.DiskReadNanos > 0 && t.DiskReadBytes > 0 {
		st.DiskBWBytes = ewma(st.DiskBWBytes, float64(t.DiskReadBytes)/(float64(t.DiskReadNanos)/1e9))
	}
	if t.NetSendNanos > 0 && t.BytesSent > 0 {
		st.NetBWBytes = ewma(st.NetBWBytes, float64(t.BytesSent)/(float64(t.NetSendNanos)/1e9))
	}
	if t.AggOps > 0 && t.PhaseNanos[metrics.LocalReduction] > 0 {
		st.LRSecPerOp = ewma(st.LRSecPerOp, float64(t.PhaseNanos[metrics.LocalReduction])/1e9/float64(t.AggOps))
	}
	if t.CombineOps > 0 && t.PhaseNanos[metrics.GlobalCombine] > 0 {
		st.GCSecPerOp = ewma(st.GCSecPerOp, float64(t.PhaseNanos[metrics.GlobalCombine])/1e9/float64(t.CombineOps))
	}
	if s.InitOps > 0 && t.PhaseNanos[metrics.Initialization] > 0 {
		st.InitSecPerOp = ewma(st.InitSecPerOp, float64(t.PhaseNanos[metrics.Initialization])/1e9/float64(s.InitOps))
	}
	if s.OutputOps > 0 && t.PhaseNanos[metrics.OutputHandling] > 0 {
		st.OHSecPerOp = ewma(st.OHSecPerOp, float64(t.PhaseNanos[metrics.OutputHandling])/1e9/float64(s.OutputOps))
	}
	st.Samples++
}

// Samples returns how many traces have been folded in.
func (c *Calibration) Samples() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Samples
}

// Model produces the machine description and per-op costs the cost model
// should price plans with: observed rates where the calibration has them,
// the seed model everywhere else. Calibrated bandwidths are effective rates
// — the timed read and send paths already include positioning, protocol and
// stall overheads — so the corresponding fixed per-op overheads
// (DiskSeekSec, NetLatencySec, NetCPUSecPerByte) are zeroed to avoid double
// counting.
func (c *Calibration) Model(procs, disksPerNode int) (simadr.Machine, simadr.Costs) {
	m := simadr.DefaultMachine(procs)
	if disksPerNode > 0 {
		m.DisksPerNode = disksPerNode
	}
	costs := SeedCosts()
	c.mu.Lock()
	st := c.state
	c.mu.Unlock()
	if st.DiskBWBytes > 0 {
		m.DiskBWBytes = st.DiskBWBytes
		m.DiskSeekSec = 0
	}
	if st.NetBWBytes > 0 {
		m.NetBWBytes = st.NetBWBytes
		m.NetLatencySec = 0
		m.NetCPUSecPerByte = 0
	}
	if st.InitSecPerOp > 0 {
		costs.Init = st.InitSecPerOp
	}
	if st.LRSecPerOp > 0 {
		costs.LR = st.LRSecPerOp
	}
	if st.GCSecPerOp > 0 {
		costs.GC = st.GCSecPerOp
	}
	if st.OHSecPerOp > 0 {
		costs.OH = st.OHSecPerOp
	}
	return m, costs
}

// Save writes the calibration as JSON, atomically (temp file + rename), so
// a crash mid-write never truncates the learned rates.
func (c *Calibration) Save(path string) error {
	c.mu.Lock()
	data, err := json.MarshalIndent(c.state, "", "  ")
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("costmodel: marshal calibration: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".calibration-*")
	if err != nil {
		return fmt.Errorf("costmodel: save calibration: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("costmodel: save calibration: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("costmodel: save calibration: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("costmodel: save calibration: %w", err)
	}
	return nil
}

// LoadCalibration reads a calibration saved by Save. A missing file returns
// a fresh (zero-sample) calibration, so daemons can point -calibration-file
// at a path that does not exist yet.
func LoadCalibration(path string) (*Calibration, error) {
	c := &Calibration{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("costmodel: load calibration: %w", err)
	}
	if err := json.Unmarshal(data, &c.state); err != nil {
		return nil, fmt.Errorf("costmodel: load calibration %s: %w", path, err)
	}
	return c, nil
}
