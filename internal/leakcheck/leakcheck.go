// Package leakcheck is the shared teardown check of the failure and flow
// tests: a query that ends, fails or is refused must hand every pooled
// buffer back to internal/bufpool and stop every goroutine it started. It is
// test-support code with no role at runtime, kept in internal/ so the engine
// and back-end tests share one definition of "nothing leaked".
package leakcheck

import (
	"runtime"
	"testing"
	"time"

	"adr/internal/bufpool"
)

// Check records the pooled-buffer balance and the goroutine count, and when
// the test ends polls, bounded at 5 s, for both to return. Call it first, so
// its cleanup runs after everything the test registers later (servers'
// shutdown included).
func Check(t testing.TB) {
	t.Helper()
	bufs, gos := bufpool.Outstanding(), runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for bufpool.Outstanding() != bufs || runtime.NumGoroutine() > gos {
			if time.Now().After(deadline) {
				t.Errorf("leaked: bufpool outstanding %d (was %d), %d goroutines (were %d)",
					bufpool.Outstanding(), bufs, runtime.NumGoroutine(), gos)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
