// Package leakcheck is the shared teardown check of the failure and flow
// tests: a query that ends, fails or is refused must hand every pooled
// buffer back to internal/bufpool, return every forwarded byte's credit to
// its sender and stop every goroutine it started. It is test-support code
// with no role at runtime, kept in internal/ so the transport, engine,
// back-end and front-end tests share one definition of "nothing leaked".
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"adr/internal/bufpool"
	"adr/internal/metrics"
)

// Check records the pooled-buffer balance, the goroutine count and every
// adr_rpc_inflight_bytes gauge (the bytes charged against a sender's credit
// window), and when the test ends polls, bounded at 5 s, for all of them to
// return. Call it first, so its cleanup runs after everything the test
// registers later (servers' shutdown included).
func Check(t testing.TB) {
	t.Helper()
	bufs, gos, charged := bufpool.Outstanding(), runtime.NumGoroutine(), inflight()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			drift := inflightDrift(charged)
			if bufpool.Outstanding() == bufs && runtime.NumGoroutine() <= gos && drift == "" {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leaked: bufpool outstanding %d (was %d), %d goroutines (were %d)%s",
					bufpool.Outstanding(), bufs, runtime.NumGoroutine(), gos, drift)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// inflight reads every adr_rpc_inflight_bytes series.
func inflight() map[string]int64 {
	out := make(map[string]int64)
	for name, v := range metrics.Default.Snapshot().Gauges {
		if strings.HasPrefix(name, "adr_rpc_inflight_bytes{") {
			out[name] = v
		}
	}
	return out
}

// inflightDrift names every series that is off its value in start (a series
// born since started at 0), or returns "" when none is.
func inflightDrift(start map[string]int64) string {
	var drift string
	for name, v := range inflight() {
		if v != start[name] {
			drift += fmt.Sprintf(", %s = %d (was %d)", name, v, start[name])
		}
	}
	return drift
}
