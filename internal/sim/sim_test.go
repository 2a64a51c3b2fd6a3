package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("end = %g", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var at1, at2 Time
	e.After(1, func() {
		at1 = e.Now()
		e.After(2, func() { at2 = e.Now() })
	})
	e.Run()
	if at1 != 1 || at2 != 3 {
		t.Errorf("times = %g, %g", at1, at2)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.After(-1, func() {})
}

func TestResourceFIFOSerialization(t *testing.T) {
	// Three acquisitions of 2s each issued at t=0 complete at 2, 4, 6.
	e := New()
	r := NewResource(e, "disk")
	var done []Time
	for i := 0; i < 3; i++ {
		r.Acquire(2, func() { done = append(done, e.Now()) })
	}
	e.Run()
	if len(done) != 3 || done[0] != 2 || done[1] != 4 || done[2] != 6 {
		t.Errorf("completions = %v", done)
	}
	if r.busy != 6 || r.ops != 3 {
		t.Errorf("busy=%g ops=%d", r.busy, r.ops)
	}
}

func TestResourceIdleGap(t *testing.T) {
	// An acquisition issued after the resource went idle starts at issue
	// time, not at the previous completion.
	e := New()
	r := NewResource(e, "cpu")
	var second Time
	r.Acquire(1, func() {
		e.After(5, func() { // resource idle from t=1 to t=6
			r.Acquire(1, func() { second = e.Now() })
		})
	})
	e.Run()
	if second != 7 {
		t.Errorf("second completion at %g, want 7", second)
	}
	if r.busy != 2 {
		t.Errorf("busy = %g, want 2", r.busy)
	}
}

func TestTwoResourcesOverlap(t *testing.T) {
	// Independent resources overlap: total makespan is max, not sum.
	e := New()
	disk := NewResource(e, "disk")
	cpu := NewResource(e, "cpu")
	disk.Acquire(5, nil)
	cpu.Acquire(3, nil)
	if end := e.Run(); end != 5 {
		t.Errorf("makespan = %g, want 5 (overlapped)", end)
	}
}

func TestPipelineHandoff(t *testing.T) {
	// disk(1s each) feeding cpu(2s each) for 3 chunks: classic pipeline.
	// disk done at 1,2,3; cpu busy 1..3, 3..5, 5..7 -> makespan 7.
	e := New()
	disk := NewResource(e, "disk")
	cpu := NewResource(e, "cpu")
	for i := 0; i < 3; i++ {
		disk.Acquire(1, func() {
			cpu.Acquire(2, nil)
		})
	}
	if end := e.Run(); end != 7 {
		t.Errorf("pipeline makespan = %g, want 7", end)
	}
}

func TestAcquireZeroDemand(t *testing.T) {
	e := New()
	r := NewResource(e, "r")
	fired := false
	r.Acquire(0, func() { fired = true })
	if end := e.Run(); end != 0 || !fired {
		t.Errorf("zero-demand acquire: end=%g fired=%v", end, fired)
	}
}

func TestNegativeDemandPanics(t *testing.T) {
	e := New()
	r := NewResource(e, "r")
	defer func() {
		if recover() == nil {
			t.Error("negative demand should panic")
		}
	}()
	r.Acquire(-1, nil)
}

func TestCounter(t *testing.T) {
	fired := false
	c := NewCounter(3, func() { fired = true })
	c.Arm()
	c.Done()
	c.Done()
	if fired {
		t.Fatal("fired early")
	}
	c.Done()
	if !fired {
		t.Fatal("did not fire")
	}
}

func TestCounterZeroFiresOnArm(t *testing.T) {
	fired := false
	c := NewCounter(0, func() { fired = true })
	if fired {
		t.Fatal("fired before Arm")
	}
	c.Arm()
	if !fired {
		t.Fatal("Arm on zero counter should fire")
	}
	c.Arm() // idempotent
}

func TestCounterOverCompletionPanics(t *testing.T) {
	c := NewCounter(1, func() {})
	c.Done()
	defer func() {
		if recover() == nil {
			t.Error("over-completion should panic")
		}
	}()
	c.Done()
}

func TestDeterminism(t *testing.T) {
	// The same randomized scenario must produce the identical trace twice.
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		resources := []*Resource{
			NewResource(e, "a"), NewResource(e, "b"), NewResource(e, "c"),
		}
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			r := resources[rng.Intn(len(resources))]
			r.Acquire(rng.Float64(), func() {
				trace = append(trace, e.Now())
				if rng.Float64() < 0.5 {
					spawn(depth + 1)
				}
			})
		}
		for i := 0; i < 50; i++ {
			spawn(0)
		}
		e.Run()
		return trace
	}
	a, b := run(9), run(9)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestQuickResourceBusyConservation(t *testing.T) {
	// Busy time equals the sum of demands, and the final free time is at
	// least the busy time (FIFO never shrinks work).
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		e := New()
		r := NewResource(e, "r")
		var total Time
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			d := rng.Float64() * 3
			total += d
			// Stagger issue times.
			e.At(rng.Float64()*5, func() { r.Acquire(d, nil) })
		}
		end := e.Run()
		return almostEq(r.busy, total) && end+1e-9 >= r.busy && r.ops == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b Time) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6
}

func BenchmarkEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		r := NewResource(e, "r")
		for j := 0; j < 10000; j++ {
			r.Acquire(0.001, nil)
		}
		e.Run()
	}
}
