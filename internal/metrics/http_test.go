package metrics

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// startTestServer brings up the HTTP surface on a loopback port with a
// populated registry and query log.
func startTestServer(t *testing.T) (*Server, *Registry, *QueryLog) {
	t.Helper()
	reg := newRegistry()
	reg.Counter("adr_disk_reads_total").Add(7)
	reg.Gauge("adr_node_queries_inflight").Set(1)
	reg.Histogram("adr_disk_read_seconds", nil).Observe(0.002)

	ql := NewQueryLog(reg, "adr_test")
	rec := ql.Begin(1, "vol->ras/fra")
	ql.End(rec, nil, EndStats{BytesRead: 100, Chunks: 4})
	ql.Begin(2, "vol->ras/da") // left in flight

	s, err := Serve("127.0.0.1:0", reg, ql)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, reg, ql
}

func get(t *testing.T, url string, hdr map[string]string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	s, _, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"# TYPE adr_disk_reads_total counter",
		"adr_disk_reads_total 7",
		"adr_node_queries_inflight 1",
		"# TYPE adr_disk_read_seconds histogram",
		`adr_disk_read_seconds_bucket{le="+Inf"} 1`,
		"adr_test_queries_total 2",
		"adr_test_queries_inflight 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}
}

func TestMetricsEndpointJSON(t *testing.T) {
	s, _, _ := startTestServer(t)
	for name, hdr := range map[string]map[string]string{
		"?format=json":  nil,
		"Accept header": {"Accept": "application/json"},
	} {
		url := "http://" + s.Addr() + "/metrics"
		if hdr == nil {
			url += "?format=json"
		}
		code, body := get(t, url, hdr)
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d", name, code)
		}
		var snap RegistrySnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("%s: JSON body does not parse: %v", name, err)
		}
		if snap.Counters["adr_disk_reads_total"] != 7 {
			t.Errorf("%s: counter = %d", name, snap.Counters["adr_disk_reads_total"])
		}
		if snap.Histograms["adr_disk_read_seconds"].Count != 1 {
			t.Errorf("%s: histogram missing", name)
		}
	}
}

func TestDebugQueriesEndpoint(t *testing.T) {
	s, _, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/debug/queries", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var page struct {
		Active []QueryRecord `json:"active"`
		Recent []QueryRecord `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(page.Active) != 1 || page.Active[0].QueryID != 2 {
		t.Errorf("active = %+v, want query 2 in flight", page.Active)
	}
	if len(page.Recent) != 1 || page.Recent[0].QueryID != 1 {
		t.Errorf("recent = %+v, want query 1 completed", page.Recent)
	}
	if page.Recent[0].BytesRead != 100 || page.Recent[0].Chunks != 4 {
		t.Errorf("recent stats = %+v", page.Recent[0])
	}
	if page.Recent[0].DurationMS <= 0 {
		t.Errorf("completed query should have a duration, got %v", page.Recent[0].DurationMS)
	}
}

func TestHealthz(t *testing.T) {
	s, _, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/healthz", nil)
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestQueryLogRing(t *testing.T) {
	ql := NewQueryLog(newRegistry(), "adr_test")
	for i := 0; i < recentKeep+10; i++ {
		rec := ql.Begin(int32(i), "q")
		ql.End(rec, nil, EndStats{})
	}
	ql.mu.Lock()
	n := len(ql.recent)
	newest := ql.recent[len(ql.recent)-1].QueryID
	ql.mu.Unlock()
	if n != recentKeep {
		t.Errorf("ring length = %d, want %d", n, recentKeep)
	}
	if newest != int32(recentKeep+9) {
		t.Errorf("newest = %d", newest)
	}
}

func TestQueryLogError(t *testing.T) {
	reg := newRegistry()
	ql := NewQueryLog(reg, "adr_test")
	rec := ql.Begin(7, "bad")
	ql.End(rec, errors.New("no such dataset"), EndStats{})
	ql.mu.Lock()
	got := ql.recent[0].Error
	ql.mu.Unlock()
	if got != "no such dataset" {
		t.Errorf("error = %q", got)
	}
	if v := reg.Gauge("adr_test_queries_inflight").Value(); v != 0 {
		t.Errorf("inflight = %d after completion", v)
	}
}
