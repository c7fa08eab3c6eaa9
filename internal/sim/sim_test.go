package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tm := e.After(10, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("double cancel should fail")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled timer fired")
	}
	if tm.Pending() {
		t.Fatal("cancelled timer still pending")
	}
}

// A cancelled event leaves the queue at once, the rest still fire in (time,
// sequence) order, and a stale handle to the recycled record stays inert.
func TestTimerCancelLeavesQueue(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var tms []Timer
	for i := 0; i < 8; i++ {
		i := i
		tms = append(tms, e.After(Duration(10*(i%3)), func() { got = append(got, i) }))
	}
	for _, i := range []int{4, 0, 7} {
		if !tms[i].Cancel() {
			t.Fatalf("cancel %d failed", i)
		}
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d after cancelling 3 of 8, want 5", e.Pending())
	}
	// The next scheduling reuses a cancelled record; the old handle must not
	// reach it.
	reused := e.After(5, func() { got = append(got, 100) })
	if tms[7].Cancel() || tms[7].Pending() || !reused.Pending() {
		t.Fatal("stale handle reached a recycled record")
	}
	e.Run()
	want := []int{3, 6, 100, 1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(1, func() {})
	e.Run()
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative After mishandled: ran=%v now=%d", ran, e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(100)
	if e.Now() != 100 {
		t.Fatalf("idle RunFor did not advance clock: %d", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.After(1, func() { count++; e.Stop() })
	e.After(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt run: count=%d", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		for i := 0; i < 50; i++ {
			d := Duration(e.Rand().Int63n(1000))
			e.After(d, func() { trace = append(trace, int64(e.Now())) })
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("non-deterministic lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic trace at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestProcExecSerializes(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	var ends []Time
	p.Exec(100, func() { ends = append(ends, e.Now()) })
	p.Exec(50, func() { ends = append(ends, e.Now()) })
	e.Run()
	if len(ends) != 2 || ends[0] != 100 || ends[1] != 150 {
		t.Fatalf("exec did not serialize: %v", ends)
	}
}

func TestProcDeliverWaitsForBusy(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	p.Charge(200)
	var at Time = -1
	p.Deliver(func() { at = e.Now() })
	e.Run()
	if at != 200 {
		t.Fatalf("delivery did not queue behind busy process: at=%d", at)
	}
}

func TestProcCrashDropsWork(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	ran := false
	p.Exec(10, func() { ran = true })
	p.Deliver(func() { ran = true })
	p.After(10, func() { ran = true })
	p.Crash()
	e.Run()
	if ran {
		t.Fatal("crashed process executed work")
	}
	if !p.Crashed() {
		t.Fatal("Crashed() false after Crash()")
	}
}

func TestProcChargeAccumulates(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	p.Charge(10)
	p.Charge(20)
	if p.BusyUntil() != 30 {
		t.Fatalf("busyUntil = %d, want 30", p.BusyUntil())
	}
}

func TestDurationString(t *testing.T) {
	if s := (1500 * Nanosecond).String(); s != "1.500us" {
		t.Fatalf("Duration.String = %q", s)
	}
	if (2 * Microsecond).Micros() != 2.0 {
		t.Fatal("Micros wrong")
	}
}

// Property: for any sequence of non-negative delays scheduled up front,
// events fire in non-decreasing time order and the final clock equals the
// maximum delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		var max Duration
		for _, r := range raw {
			d := Duration(r)
			if d > max {
				max = d
			}
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(raw) == 0 || e.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
