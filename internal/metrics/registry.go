package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The registry holds process-wide counters, gauges and histograms keyed by
// name. Lookups take a read lock only on the hot get-or-create path and the
// returned handles update with atomics, so instrumented code (the RPC
// transports, the disk stores, the engine) records without contention.
//
// Names follow Prometheus conventions (snake_case, unit-suffixed, an
// "adr_" prefix) and may carry a label suffix in curly braces, e.g.
//
//	adr_rpc_sent_bytes_total{peer="3"}
//
// The label text is treated as part of the key; WritePrometheus groups
// series of one family (same base name) under a single TYPE line.

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0 for Prometheus semantics;
// this is not enforced to keep the hot path branch-free).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. queries in flight).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Max raises the gauge to n if n is above the current value — a high-water
// mark that concurrent callers can only ever ratchet up.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// counts per upper bound plus a +Inf bucket, a total count and a value sum.
// Observations are atomic; buckets are immutable after creation.
type Histogram struct {
	bounds []float64      // sorted upper bounds, excluding +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// defBuckets suits sub-millisecond to multi-second latencies in seconds —
// the range spanning an in-memory chunk read to a slow distributed query.
var defBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is an immutable copy of a histogram for export.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // upper bounds, excluding +Inf
	Counts []int64   `json:"counts"` // per-bucket (non-cumulative); last is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	return s
}

// Registry is a named collection of metrics. The zero value is not usable:
// code records into the process-wide Default, and this package's tests
// build private ones.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Default is the process-wide registry that the instrumented subsystems
// (rpc transports, disk stores, engine, daemons) record into and that the
// /metrics HTTP surface exports.
var Default = newRegistry()

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (nil selects defBuckets). Later calls ignore
// buckets and return the existing histogram.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if len(buckets) == 0 {
		buckets = defBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.histograms[name] = h
	return h
}

// RegistrySnapshot is the JSON (expvar-style) export of a registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry as one JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// baseName strips a trailing {label="..."} suffix, returning the metric
// family name and the label text (without braces).
func baseName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one TYPE line per family, series sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	bw := &errWriter{w: w}

	writeScalar := func(vals map[string]int64, typ string) {
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		typed := make(map[string]bool)
		for _, n := range names {
			base, _ := baseName(n)
			if !typed[base] {
				fmt.Fprintf(bw, "# TYPE %s %s\n", base, typ)
				typed[base] = true
			}
			fmt.Fprintf(bw, "%s %d\n", n, vals[n])
		}
	}
	writeScalar(snap.Counters, "counter")
	writeScalar(snap.Gauges, "gauge")

	hnames := make([]string, 0, len(snap.Histograms))
	for n := range snap.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := snap.Histograms[n]
		base, labels := baseName(n)
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(bw, "# TYPE %s histogram\n", base)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{%s%sle=%q} %d\n", base, labels, sep, formatBound(bound), cum)
		}
		cum += h.Counts[len(h.Counts)-1]
		fmt.Fprintf(bw, "%s_bucket{%s%sle=\"+Inf\"} %d\n", base, labels, sep, cum)
		if labels != "" {
			fmt.Fprintf(bw, "%s_sum{%s} %g\n", base, labels, h.Sum)
			fmt.Fprintf(bw, "%s_count{%s} %d\n", base, labels, h.Count)
		} else {
			fmt.Fprintf(bw, "%s_sum %g\n", base, h.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", base, h.Count)
		}
	}
	return bw.err
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// errWriter latches the first write error so the format loops stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
