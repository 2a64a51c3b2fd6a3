package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := newRegistry()
	c1 := r.Counter("adr_test_total")
	c2 := r.Counter("adr_test_total")
	if c1 != c2 {
		t.Error("Counter should return the same handle for the same name")
	}
	if r.Counter("adr_other_total") == c1 {
		t.Error("distinct names should get distinct counters")
	}
	g1 := r.Gauge("adr_test_gauge")
	if g1 != r.Gauge("adr_test_gauge") {
		t.Error("Gauge should return the same handle for the same name")
	}
	h1 := r.Histogram("adr_test_seconds", []float64{1, 2})
	h2 := r.Histogram("adr_test_seconds", []float64{5, 6, 7})
	if h1 != h2 {
		t.Error("Histogram should ignore buckets after first creation")
	}
}

// TestRegistryConcurrent hammers get-or-create and the atomic handles from
// many goroutines; run under -race this is the registry's thread-safety
// proof.
func TestRegistryConcurrent(t *testing.T) {
	r := newRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("adr_shared_total").Inc()
				r.Gauge("adr_shared_gauge").Add(1)
				r.Histogram("adr_shared_seconds", nil).Observe(0.001)
				// Snapshot concurrently with updates.
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("adr_shared_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("adr_shared_gauge").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("adr_shared_seconds", nil)
	if h.count.Load() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.count.Load(), workers*perWorker)
	}
	wantSum := float64(workers*perWorker) * 0.001
	if diff := h.Sum() - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
}

// TestGaugeMaxConcurrent: Max is a high-water mark. Once Max(v) returns the
// gauge never reads below v, whatever other goroutines ratchet meanwhile — a
// check-then-Set loses that race and lets a slower caller lower the mark.
func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := int64(i*workers + w)
				g.Max(v)
				if got := g.Value(); got < v {
					t.Errorf("gauge reads %d after Max(%d)", got, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), int64(workers*perWorker-1); got != want {
		t.Errorf("gauge = %d after concurrent ratchets, want the maximum %d", got, want)
	}
	g.Max(5)
	if got, want := g.Value(), int64(workers*perWorker-1); got != want {
		t.Errorf("Max below the mark moved it to %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("adr_lat_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // bucket le=0.01
	h.Observe(0.05)  // bucket le=0.1
	h.Observe(0.5)   // bucket le=1
	h.Observe(5)     // +Inf
	s := h.Snapshot()
	want := []int64{1, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 4 {
		t.Errorf("count = %d", s.Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := newRegistry()
	r.Counter(`adr_rpc_sent_bytes_total{peer="0"}`).Add(10)
	r.Counter(`adr_rpc_sent_bytes_total{peer="1"}`).Add(20)
	r.Gauge("adr_queries_inflight").Set(3)
	r.Histogram("adr_read_seconds", []float64{0.5, 1}).Observe(0.25)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// One TYPE line per family, even with two labelled series.
	if n := strings.Count(out, "# TYPE adr_rpc_sent_bytes_total counter"); n != 1 {
		t.Errorf("want exactly 1 TYPE line for the counter family, got %d in:\n%s", n, out)
	}
	for _, want := range []string{
		`adr_rpc_sent_bytes_total{peer="0"} 10`,
		`adr_rpc_sent_bytes_total{peer="1"} 20`,
		"# TYPE adr_queries_inflight gauge",
		"adr_queries_inflight 3",
		"# TYPE adr_read_seconds histogram",
		`adr_read_seconds_bucket{le="0.5"} 1`,
		`adr_read_seconds_bucket{le="1"} 1`,
		`adr_read_seconds_bucket{le="+Inf"} 1`,
		"adr_read_seconds_sum 0.25",
		"adr_read_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := newRegistry()
	r.Counter("adr_chunks_total").Add(42)
	r.Gauge("adr_inflight").Set(2)
	r.Histogram("adr_lat_seconds", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	if snap.Counters["adr_chunks_total"] != 42 {
		t.Errorf("counter = %d", snap.Counters["adr_chunks_total"])
	}
	if snap.Gauges["adr_inflight"] != 2 {
		t.Errorf("gauge = %d", snap.Gauges["adr_inflight"])
	}
	h, ok := snap.Histograms["adr_lat_seconds"]
	if !ok || h.Count != 1 || h.Sum != 0.5 {
		t.Errorf("histogram = %+v (present=%v)", h, ok)
	}
}

func TestBaseName(t *testing.T) {
	cases := []struct{ in, base, labels string }{
		{"adr_x_total", "adr_x_total", ""},
		{`adr_x_total{peer="3"}`, "adr_x_total", `peer="3"`},
		{`adr_x_total{a="1",b="2"}`, "adr_x_total", `a="1",b="2"`},
	}
	for _, c := range cases {
		base, labels := baseName(c.in)
		if base != c.base || labels != c.labels {
			t.Errorf("baseName(%q) = %q, %q", c.in, base, labels)
		}
	}
}
