package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adr/internal/frontend"
)

// sample is one query as its client saw it: submit -> last result byte.
type sample struct {
	idx     int
	start   time.Time
	latency time.Duration
	chunks  int
	items   int
	stats   *frontend.DoneStats
	err     error
}

// drive runs a closed loop against the front-end: each of the clients keeps
// one connection, takes the next query index from the shared counter, submits
// it and waits for the whole result before taking another. stop is asked
// before each submission. It returns every completed query, in index order.
func drive(addr string, w *workload, seed int64, next *atomic.Int64, clients int, stop func(i int) bool) []sample {
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cl *frontend.Client
			defer func() {
				if cl != nil {
					cl.Close()
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					next.Add(-1)
					return
				}
				s := sample{idx: i}
				if cl == nil {
					if cl, s.err = frontend.Dial(addr); s.err != nil {
						cl = nil
						perClient[c] = append(perClient[c], s)
						continue
					}
				}
				spec := w.spec(seed, i)
				s.start = time.Now()
				chunks, stats, err := cl.Query(spec)
				s.latency = time.Since(s.start)
				s.chunks, s.stats, s.err = len(chunks), stats, err
				for _, ch := range chunks {
					s.items += len(ch.Items)
				}
				if err != nil {
					// The stream may be out of sync after a failure.
					cl.Close()
					cl = nil
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all
}

// untilDeadline stops a closed loop after d.
func untilDeadline(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().After(deadline) }
}

// cpuTime is the process's user+system CPU time so far. The load generator
// shares the process with the stack, so it is included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
