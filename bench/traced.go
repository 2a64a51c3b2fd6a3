package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"adr/internal/frontend"
	"adr/internal/metrics"
)

// span is one timed interval recorded from the benchmark's side of a layer
// boundary. Spans of one query share Query; Parent is the index of the span
// that caused this one (-1 for a root). Count is the work the interval
// covered, in the layer's own unit (chunks, items, cells, messages).
type span struct {
	Name    string `json:"name"`
	Query   int    `json:"query"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: both traced passes are serial.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, query, parent int) int {
	t.spans = append(t.spans, span{Name: name, Query: query, Parent: parent, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id, recording how much work it covered.
func (t *tracer) end(id int, count int64) {
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.spans[id].Count = count
}

// add records a root span timed elsewhere: the load generator already takes
// both timestamps of a live query.
func (t *tracer) add(name string, query int, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Query: query, Parent: -1, StartNs: s, EndNs: s + int64(d), Count: 1})
}

// layerTotals sums, per span name, self time (duration minus the part
// covered by child spans) and work count.
func (t *tracer) layerTotals() (selfNs map[string]int64, count map[string]int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	selfNs, count = map[string]int64{}, map[string]int64{}
	for i, s := range t.spans {
		selfNs[s.Name] += s.EndNs - s.StartNs - child[i]
		count[s.Name] += s.Count
	}
	return selfNs, count
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// liveTraceMetrics aggregates the DoneStats.Traces the protocol returned for
// a serially replayed prefix: phase times are the slowest node's, medians
// over queries; counts and busy times are summed over nodes and averaged
// over queries.
func liveTraceMetrics(samples []sample, m map[string]float64) {
	n := float64(len(samples))
	var phase [4][]float64
	var wall, skew, outside []float64
	var tot metrics.Snapshot
	for _, s := range samples {
		var maxPhase [4]int64
		var walls []float64
		for _, tr := range s.stats.Traces {
			for p := range maxPhase {
				if p < len(tr.Phases) && tr.Phases[p].Nanos > maxPhase[p] {
					maxPhase[p] = tr.Phases[p].Nanos
				}
			}
			walls = append(walls, float64(tr.WallNanos))
			tot.Add(tr.Totals)
		}
		for p := range phase {
			phase[p] = append(phase[p], float64(maxPhase[p])/1e6)
		}
		sort.Float64s(walls)
		slowest := walls[len(walls)-1]
		wall = append(wall, slowest/1e6)
		if med := quantile(walls, 0.5); med > 0 {
			skew = append(skew, slowest/med)
		}
		outside = append(outside, (float64(s.latency)-slowest)/1e6)
	}
	for p, name := range []string{"i", "lr", "gc", "oh"} {
		m["engine.phase_"+name+"_ms"] = median(phase[p])
	}
	m["engine.node_wall_ms"] = median(wall)
	m["engine.node_wall_skew"] = median(skew)
	m["stack.outside_engine_ms"] = median(outside)
	m["engine.bytes_read_per_query"] = float64(tot.BytesRead) / n
	m["engine.bytes_sent_per_query"] = float64(tot.BytesSent) / n
	m["engine.msgs_sent_per_query"] = float64(tot.MsgsSent) / n
	m["engine.agg_ops_per_query"] = float64(tot.AggOps) / n
	m["engine.combine_ops_per_query"] = float64(tot.CombineOps) / n
	m["engine.decode_ms_per_query"] = float64(tot.DecodeNanos) / 1e6 / n
	m["engine.net_send_ms_per_query"] = float64(tot.NetSendNanos) / 1e6 / n
	m["engine.queue_wait_ms_per_query"] = float64(tot.QueueWaitNanos) / 1e6 / n
	m["engine.credit_stalls_per_query"] = float64(tot.CreditStalls) / n
	m["layout.disk_read_ms_per_query"] = float64(tot.DiskReadNanos) / 1e6 / n
	if tot.ChunksRead > 0 {
		m["layout.cache_hit_ratio"] = float64(tot.CacheHits) / float64(tot.ChunksRead)
	}
}

// autoMetrics covers what only an AUTO workload exercises: how the cost
// model's prediction compared with the measured makespan, how often it chose
// FRA, and the estimate round-trip the front-end pays before relaying.
func autoMetrics(samples []sample, nodeAddrs []string, w *workload, seed int64, tr *tracer, m map[string]float64) error {
	var ratio []float64
	var fra float64
	for _, s := range samples {
		sel := s.stats.Selection
		if sel == nil {
			continue
		}
		if sel.ActualSec > 0 {
			ratio = append(ratio, sel.PredictedSec/sel.ActualSec)
		}
		if sel.Strategy == "FRA" {
			fra++
		}
	}
	m["costmodel.pred_over_actual"] = median(ratio)
	m["costmodel.chosen_fra_frac"] = fra / float64(len(samples))
	var rtt []float64
	for _, s := range samples {
		id := tr.begin("frontend.estimate_rtt", s.idx, -1)
		_, err := frontend.ResolveAuto(nodeAddrs, w.spec(seed, s.idx), 0, 0)
		tr.end(id, 1)
		if err != nil {
			return err
		}
		rtt = append(rtt, float64(tr.spans[id].EndNs-tr.spans[id].StartNs)/1e3)
	}
	m["frontend.estimate_rtt_us"] = median(rtt)
	return nil
}
