package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"adr/internal/bufpool"
	"adr/internal/frontend"
)

const (
	// runLimit bounds one run; see the watchdog in runWorkload.
	runLimit = 150 * time.Second
	// gateQueries is how many queries of the sequence the correctness gate
	// checks; the eighth is the first write-back of vm_output_wb.
	gateQueries = 8
)

// runConfig is one benchmark run: one workload, one pass.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	sz      sizing
	outDir  string
}

// passResult is what one run measured.
type passResult struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runWorkload sets the farm and the stack up, gates on correctness, warms
// up, and runs the timed closed loop (trace off) or the traced prefix and
// the layer replay (trace on). It removes the farm and stops the stack
// before returning.
func runWorkload(rc runConfig) (*passResult, error) {
	w := rc.w
	res := &passResult{Workload: w.Name, Trace: rc.trace, Seed: rc.seed, Metrics: map[string]float64{}}
	goroutines0 := runtime.NumGoroutine()
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	// Whatever the stack does, a run must end inside the driver's 180 s: a
	// hang becomes a goroutine dump and a non-zero exit.
	watchdog := time.AfterFunc(runLimit, func() {
		buf := make([]byte, 1<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v, giving up\n", w.Name, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	items := genItems(w.Dataset, rc.seed, rc.sz.Items)

	// Set-up, repeated so setup_s is a median: load the farm through the
	// program's loading pipeline, start the mesh and the front-end, connect.
	// The traced pass reports no setup_s and sets up once.
	repeats := rc.sz.SetupRepeats
	if rc.trace {
		repeats = 1
	}
	var st *stack
	var dir string
	var cl *frontend.Client
	cleanup := func() {
		if cl != nil {
			cl.Close()
		}
		if st != nil {
			st.Close()
		}
		os.RemoveAll(dir)
		cl, st = nil, nil
	}
	defer cleanup()
	var setups []float64
	for r := 0; r < repeats; r++ {
		cleanup()
		var err error
		if dir, err = os.MkdirTemp(rc.outDir, "farm-"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err = loadFarm(dir, w.Dataset, w.LoadCodec, items, rc.sz); err != nil {
			return nil, fmt.Errorf("load farm: %w", err)
		}
		if st, err = startStack(dir, rc.sz.CacheBytes); err != nil {
			return nil, err
		}
		if cl, err = frontend.Dial(st.front.Addr()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	items = nil
	// Start measuring from a settled machine: the farm's dirty pages written
	// back now rather than during the loop, and the dataset's garbage gone.
	syscall.Sync()
	runtime.GC()

	cat, err := openCatalog(dir, w.Dataset)
	if err != nil {
		return nil, err
	}
	defer cat.Close()

	// Correctness gate, then a discarded warm-up under the workload's own
	// client count, so caches and the AUTO calibration are in steady state.
	if err := gate(cat, cl, w, rc.seed, gateQueries); err != nil {
		return nil, err
	}
	res.Attempted = gateQueries
	var next atomic.Int64
	next.Store(gateQueries)
	drive(st.front.Addr(), w, rc.seed, &next, w.Clients, untilDeadline(time.Duration(rc.sz.WarmupSec*float64(time.Second))))

	if !rc.trace {
		d := time.Duration(rc.seconds * float64(time.Second))
		marks := markWindows(d)
		samples := drive(st.front.Addr(), w, rc.seed, &next, w.Clients, untilDeadline(d))
		timedMetrics(cat, w, rc.seed, samples, marks(), res)
		res.Metrics["setup_s"] = median(setups)
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced pass, part (a): the fixed prefix from one client, twice — plain,
	// then with the benchmark's spans and the process sampler on. The ratio
	// of the two medians is what tracing costs.
	n := w.prefix(rc.sz)
	prefix := func(i int) bool { return i >= n }
	var from0 atomic.Int64
	plain := drive(st.front.Addr(), w, rc.seed, &from0, 1, prefix)
	tr := newTracer()
	proc := startProcSampler()
	from0.Store(0)
	t0 := time.Now()
	traced := drive(st.front.Addr(), w, rc.seed, &from0, 1, prefix)
	proc.stop(res.Metrics, len(traced), time.Since(t0))
	res.Attempted += len(plain) + len(traced)
	for _, s := range append(plain, traced...) {
		if !sampleOK(cat, w, rc.seed, s) {
			res.Failed++
		}
	}
	if res.Failed > 0 {
		return res, nil
	}
	for _, s := range traced {
		tr.add("stack.query", s.idx, s.start, s.latency)
	}
	res.Samples = len(traced)
	res.Metrics["trace.overhead_frac"] = latencyQuantile(traced, 0.5)/latencyQuantile(plain, 0.5) - 1
	liveTraceMetrics(traced, res.Metrics)
	for _, name := range []string{"costmodel.pred_over_actual", "costmodel.chosen_fra_frac", "frontend.estimate_rtt_us"} {
		res.Metrics[name] = 0
	}
	if w.Strategy == "AUTO" {
		if err := autoMetrics(traced, st.nodeAddrs, w, rc.seed, tr, res.Metrics); err != nil {
			return nil, err
		}
	}
	res.Metrics["layout.stored_bytes_per_logical_byte"] = float64(cat.in.StoredTotalBytes()) / float64(cat.in.TotalBytes())

	// Stop the stack before the replay: the replay wants the processors and
	// the farm to itself, and the leak counters want everything closed.
	cl.Close()
	st.Close()
	cl, st = nil, nil
	res.Metrics["proc.goroutines_leaked"] = math.Max(0, float64(settledGoroutines(goroutines0)-goroutines0))
	res.Metrics["bufpool.outstanding_after"] = float64(bufpool.Outstanding())

	// Part (b): the layer replay.
	scratch := filepath.Join(dir, "replay-scratch")
	if err := replay(cat, w, rc.seed, n, tr, scratch, res.Metrics); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	if err := tr.write(filepath.Join(rc.outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	res.Correct = true
	return res, nil
}

// sampleOK reports whether a query ended in a done frame carrying exactly
// the output chunks its box selects.
func sampleOK(cat *catalog, w *workload, seed int64, s sample) bool {
	return s.err == nil && s.stats != nil && s.stats.Chunks == s.chunks &&
		s.chunks == len(cat.out.Select(w.box(seed, s.idx)))
}

func latencyQuantile(samples []sample, q float64) float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.latency) / 1e6
	}
	sort.Float64s(lat)
	return quantile(lat, q)
}

// windows is how many equal slices the measured loop is cut into. Every
// end-to-end metric is computed per slice and reported as the median over
// slices: the sandbox's processors slow down for seconds at a time, and a
// median over slices sets those stretches aside where a whole-run mean would
// absorb them.
const windows = 10

// mark is a slice boundary: when it was taken and the process CPU time then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// markWindows records windows+1 boundaries evenly over d, starting now. The
// returned function waits for the last one and hands them over.
func markWindows(d time.Duration) func() []mark {
	marks := make([]mark, 0, windows+1)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for k := 0; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / windows)))
			marks = append(marks, mark{time.Now(), cpuTime()})
		}
	}()
	return func() []mark {
		<-done
		return marks
	}
}

// timedMetrics turns the measured closed loop into the end-to-end metrics. A
// query belongs to the slice it completed in; one still in flight at the last
// mark is checked but not timed. Input items are counted from the catalog
// after the loop ends, so the accounting costs the measured loop nothing.
func timedMetrics(cat *catalog, w *workload, seed int64, samples []sample, marks []mark, res *passResult) {
	type slice struct {
		lat               []float64
		inItems, outItems int64
	}
	slices := make([]slice, windows)
	for _, s := range samples {
		res.Attempted++
		if !sampleOK(cat, w, seed, s) {
			res.Failed++
			continue
		}
		end := s.start.Add(s.latency)
		k := sort.Search(len(marks), func(k int) bool { return marks[k].at.After(end) }) - 1
		if k < 0 || k >= windows {
			continue
		}
		sl := &slices[k]
		sl.lat = append(sl.lat, float64(s.latency)/1e6)
		for _, meta := range cat.in.Select(w.box(seed, s.idx)) {
			sl.inItems += int64(meta.Items)
		}
		sl.outItems += int64(s.items)
		res.Samples++
	}
	per := map[string][]float64{}
	for k, sl := range slices {
		if len(sl.lat) == 0 {
			continue
		}
		sort.Float64s(sl.lat)
		sec := marks[k+1].at.Sub(marks[k].at).Seconds()
		n := float64(len(sl.lat))
		for name, v := range map[string]float64{
			"query_p50_ms":       quantile(sl.lat, 0.50),
			"query_p95_ms":       quantile(sl.lat, 0.95),
			"queries_per_s":      n / sec,
			"input_items_per_s":  float64(sl.inItems) / sec,
			"result_items_per_s": float64(sl.outItems) / sec,
			"cpu_ms_per_query":   float64(marks[k+1].cpu-marks[k].cpu) / 1e6 / n,
		} {
			per[name] = append(per[name], v)
		}
	}
	for name, vals := range per {
		res.Metrics[name] = median(vals)
	}
}

// procSampler watches the process while the traced prefix runs: allocation
// and GC totals from runtime.MemStats at both ends, and the live heap every
// 10 ms in between (runtime/metrics, which does not stop the world).
type procSampler struct {
	ms0  runtime.MemStats
	quit chan struct{}
	done chan uint64
}

func startProcSampler() *procSampler {
	p := &procSampler{quit: make(chan struct{}), done: make(chan uint64)}
	runtime.ReadMemStats(&p.ms0)
	go func() {
		heap := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rtmetrics.Read(heap)
				if v := heap[0].Value.Uint64(); v > peak {
					peak = v
				}
			case <-p.quit:
				p.done <- peak
				return
			}
		}
	}()
	return p
}

func (p *procSampler) stop(m map[string]float64, queries int, elapsed time.Duration) {
	close(p.quit)
	peak := <-p.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	q := float64(queries)
	m["proc.alloc_mb_per_query"] = float64(ms.TotalAlloc-p.ms0.TotalAlloc) / 1e6 / q
	m["proc.allocs_per_query"] = float64(ms.Mallocs-p.ms0.Mallocs) / q
	m["proc.gc_pause_ms_per_s"] = float64(ms.PauseTotalNs-p.ms0.PauseTotalNs) / 1e6 / elapsed.Seconds()
	m["proc.peak_heap_mb"] = float64(peak) / 1e6
}

// settledGoroutines waits up to two seconds for the goroutine count to fall
// back to the baseline (closed connections unwind asynchronously) and
// returns the count it settled at.
func settledGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
