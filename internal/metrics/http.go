package metrics

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// QueryRecord is one query's entry in a QueryLog: identity, timing and the
// final traffic totals. All fields are written under the log's lock; the
// /debug/queries handler serves copies.
type QueryRecord struct {
	Seq     int64  `json:"seq"`      // log-local, monotonically increasing
	QueryID int32  `json:"query_id"` // front-end-assigned id (mesh multiplex key)
	Detail  string `json:"detail"`   // human-readable spec summary
	Started string `json:"started"`  // RFC3339
	// DurationMS is 0 while the query is in flight.
	DurationMS float64 `json:"duration_ms,omitempty"`
	Error      string  `json:"error,omitempty"`
	BytesRead  int64   `json:"bytes_read,omitempty"`
	BytesSent  int64   `json:"bytes_sent,omitempty"`
	BytesRecv  int64   `json:"bytes_recv,omitempty"`
	Chunks     int64   `json:"chunks,omitempty"`

	start time.Time
}

// EndStats carries a finished query's traffic totals into QueryLog.End.
type EndStats struct {
	BytesRead, BytesSent, BytesRecv, Chunks int64
}

// QueryLog tracks in-flight and recently completed queries for one process
// (a back-end node or the front-end). It maintains the standard query
// metrics in its registry — <prefix>_queries_total,
// <prefix>_queries_inflight, <prefix>_query_seconds — and emits a slow-query
// log line for completions over SlowThreshold.
type QueryLog struct {
	mu     sync.Mutex
	seq    int64
	active map[int64]*QueryRecord
	recent []*QueryRecord // ring, newest last
	keep   int

	total    *Counter
	inflight *Gauge
	seconds  *Histogram

	// SlowThreshold, when > 0, logs any query whose wall time exceeds it.
	SlowThreshold time.Duration
	// Logger receives slow-query lines (default log.Default()).
	Logger *log.Logger
}

// recentKeep is how many completed queries /debug/queries remembers.
const recentKeep = 64

// NewQueryLog builds a query log registering its metrics in reg under the
// given name prefix (e.g. "adr_node", "adr_frontend").
func NewQueryLog(reg *Registry, prefix string) *QueryLog {
	if reg == nil {
		reg = Default
	}
	return &QueryLog{
		active:   make(map[int64]*QueryRecord),
		keep:     recentKeep,
		total:    reg.Counter(prefix + "_queries_total"),
		inflight: reg.Gauge(prefix + "_queries_inflight"),
		seconds:  reg.Histogram(prefix+"_query_seconds", nil),
	}
}

// Begin records a query as in flight and returns its record handle.
func (l *QueryLog) Begin(queryID int32, detail string) *QueryRecord {
	now := time.Now()
	l.mu.Lock()
	l.seq++
	r := &QueryRecord{
		Seq:     l.seq,
		QueryID: queryID,
		Detail:  detail,
		Started: now.Format(time.RFC3339),
		start:   now,
	}
	l.active[r.Seq] = r
	l.mu.Unlock()
	l.total.Inc()
	l.inflight.Inc()
	return r
}

// End completes a record begun with Begin, folding in the outcome. It
// updates the query metrics and emits the slow-query log line if the query
// exceeded SlowThreshold.
func (l *QueryLog) End(r *QueryRecord, err error, st EndStats) {
	elapsed := time.Since(r.start)
	l.mu.Lock()
	delete(l.active, r.Seq)
	r.DurationMS = float64(elapsed) / 1e6
	if err != nil {
		r.Error = err.Error()
	}
	r.BytesRead, r.BytesSent, r.BytesRecv, r.Chunks = st.BytesRead, st.BytesSent, st.BytesRecv, st.Chunks
	l.recent = append(l.recent, r)
	if len(l.recent) > l.keep {
		l.recent = l.recent[len(l.recent)-l.keep:]
	}
	slow := l.SlowThreshold > 0 && elapsed > l.SlowThreshold
	logger := l.Logger
	l.mu.Unlock()

	l.inflight.Dec()
	l.seconds.Observe(elapsed.Seconds())
	if slow {
		if logger == nil {
			logger = log.Default()
		}
		logger.Printf("slow query %d (%s): %.1fms > %s, read=%dB sent=%dB recv=%dB",
			r.QueryID, r.Detail, r.DurationMS, l.SlowThreshold, st.BytesRead, st.BytesSent, st.BytesRecv)
	}
}

// queriesPage is the /debug/queries JSON document.
type queriesPage struct {
	Active []QueryRecord `json:"active"`
	Recent []QueryRecord `json:"recent"` // newest first
}

// ServeHTTP serves the query log as JSON (the /debug/queries endpoint).
func (l *QueryLog) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	page := queriesPage{Active: make([]QueryRecord, 0, len(l.active)), Recent: make([]QueryRecord, 0, len(l.recent))}
	for _, r := range l.active {
		rc := *r
		rc.DurationMS = float64(time.Since(r.start)) / 1e6
		page.Active = append(page.Active, rc)
	}
	for i := len(l.recent) - 1; i >= 0; i-- {
		page.Recent = append(page.Recent, *l.recent[i])
	}
	l.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(page)
}

// handler returns the /metrics endpoint for a registry: Prometheus text by
// default, expvar-style JSON with ?format=json or an Accept header
// preferring application/json.
func handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Server is a running metrics HTTP listener.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// Serve starts the observability HTTP surface on addr:
//
//	/metrics        registry export (Prometheus text; ?format=json for JSON)
//	/debug/queries  in-flight + recent queries (JSON), when ql != nil
//	/healthz        liveness probe
//
// reg == nil selects the Default registry.
func Serve(addr string, reg *Registry, ql *QueryLog) (*Server, error) {
	if reg == nil {
		reg = Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", handler(reg))
	if ql != nil {
		mux.Handle("/debug/queries", ql)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s := &Server{ln: ln, http: &http.Server{Handler: mux}}
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.http.Close() }
