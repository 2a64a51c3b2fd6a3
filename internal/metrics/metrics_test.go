package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		Initialization: "I",
		LocalReduction: "LR",
		GlobalCombine:  "GC",
		OutputHandling: "OH",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
	if Phase(9).String() == "" {
		t.Error("unknown phase should still render")
	}
}

func TestPhaseAccumulation(t *testing.T) {
	var n Node
	n.AddPhase(LocalReduction, 2*time.Second)
	n.AddPhase(LocalReduction, 3*time.Second)
	n.AddPhase(GlobalCombine, time.Second)
	if got := time.Duration(n.phaseNanos[LocalReduction].Load()); got != 5*time.Second {
		t.Errorf("LR time = %v", got)
	}
	if got := time.Duration(n.phaseNanos[GlobalCombine].Load()); got != time.Second {
		t.Errorf("GC time = %v", got)
	}
}

func TestCounters(t *testing.T) {
	var n Node
	n.BytesRead.Add(100)
	n.BytesSent.Add(10)
	n.BytesRecv.Add(20)
	n.AggOps.Add(7)
	if (n.BytesSent.Load() + n.BytesRecv.Load()) != 30 {
		t.Errorf("CommBytes = %d", (n.BytesSent.Load() + n.BytesRecv.Load()))
	}
	s := n.Snapshot()
	if s.BytesRead != 100 || s.AggOps != 7 || s.BytesSent+s.BytesRecv != 30 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestSnapshotAdd(t *testing.T) {
	var a, b Snapshot
	a.BytesRead, a.AggOps, a.PhaseNanos[1] = 5, 2, 100
	b.BytesRead, b.AggOps, b.PhaseNanos[1] = 7, 3, 50
	a.Add(b)
	if a.BytesRead != 12 || a.AggOps != 5 || a.PhaseNanos[1] != 150 {
		t.Errorf("after Add: %+v", a)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	var n Node
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.AggOps.Add(1)
				n.AddPhase(LocalReduction, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if n.AggOps.Load() != 8000 {
		t.Errorf("AggOps = %d", n.AggOps.Load())
	}
	if time.Duration(n.phaseNanos[LocalReduction].Load()) != 8000*time.Nanosecond {
		t.Errorf("LR = %v", time.Duration(n.phaseNanos[LocalReduction].Load()))
	}
}
