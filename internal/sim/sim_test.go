package sim

import (
	"math/rand"
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

// refEvent is an event as the reference queue of TestEventOrderMatchesReference
// keeps it.
type refEvent struct {
	at        Time
	seq       uint64
	label     int
	proc      *Proc // the process a deferred arrival waits for
	deferBusy bool
}

// refQueue restates the engine's ordering rules in the plainest form: every
// scheduling and every requeue of a deferred arrival takes the next seq, a
// process's Exec extends its busy horizon, and the next event is found by a
// scan for the least (at, seq).
type refQueue struct {
	now     Time
	seq     uint64
	busy    map[*Proc]Time
	pending []refEvent
	waited  int // deferred arrivals that met a busy process
}

func (r *refQueue) add(at Time, label int, proc *Proc, deferBusy bool) {
	r.pending = append(r.pending, refEvent{at, r.seq, label, proc, deferBusy})
	r.seq++
}

// exec books cost of work on p and returns when it ends.
func (r *refQueue) exec(p *Proc, cost Duration) Time {
	r.busy[p] = max(r.busy[p], r.now).Add(cost)
	return r.busy[p]
}

// cancel removes label's event and reports whether it was pending.
func (r *refQueue) cancel(label int) bool {
	for i, ev := range r.pending {
		if ev.label == label {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// next fires the least pending event and returns its label, requeueing a
// deferred arrival once behind its process's busy horizon on the way.
func (r *refQueue) next() int {
	for {
		least := 0
		for i, ev := range r.pending {
			if m := r.pending[least]; ev.at < m.at || ev.at == m.at && ev.seq < m.seq {
				least = i
			}
		}
		ev := r.pending[least]
		r.pending = append(r.pending[:least], r.pending[least+1:]...)
		if ev.deferBusy {
			ev.deferBusy = false
			if b := r.busy[ev.proc]; b > ev.at {
				ev.at = b
				r.waited++
			}
			ev.seq = r.seq
			r.seq++
			r.pending = append(r.pending, ev)
			continue
		}
		r.now = ev.at
		return ev.label
	}
}

// TestEventOrderMatchesReference drives a seeded random mix of At, After,
// Exec, Deliver, PostMsg to busy processes (the deferred requeue) and Cancel
// over more than 10^5 events, and holds every firing to the reference queue:
// the same event, at the same time. Pending must match after every Cancel,
// and a stale Timer whose record now carries another event cancels nothing.
func TestEventOrderMatchesReference(t *testing.T) {
	const events, population = 120_000, 300
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(37))
	procs := []*Proc{NewProc(e, "a"), NewProc(e, "b"), NewProc(e, "c")}
	ref := &refQueue{busy: map[*Proc]Time{}}
	type handle struct {
		label int
		tm    Timer
	}
	var live, stale []handle
	labels, fired, cancelled, staleChecked := 0, 0, 0, 0

	var fire func(label int)
	var onMsg MsgHandler = func(label int, _ []byte) { fire(label) }
	schedule := func() {
		label := labels
		labels++
		p := procs[rng.Intn(len(procs))]
		switch rng.Intn(5) {
		case 0:
			at := e.Now().Add(Duration(rng.Intn(50)))
			ref.add(at, label, nil, false)
			live = append(live, handle{label, e.At(at, func() { fire(label) })})
		case 1:
			d := Duration(rng.Intn(50))
			ref.add(e.Now().Add(d), label, nil, false)
			live = append(live, handle{label, e.After(d, func() { fire(label) })})
		case 2:
			cost := Duration(rng.Intn(30))
			ref.add(ref.exec(p, cost), label, p, false)
			live = append(live, handle{label, p.Exec(cost, func() { fire(label) })})
		case 3:
			ref.add(max(ref.busy[p], ref.now), label, p, false)
			live = append(live, handle{label, p.Deliver(func() { fire(label) })})
		default:
			at := e.Now().Add(Duration(rng.Intn(20)))
			ref.add(at, label, p, true)
			e.PostMsg(at, p, onMsg, label, nil)
		}
	}
	fire = func(label int) {
		if want := ref.next(); label != want || e.Now() != ref.now {
			t.Fatalf("firing %d: event %d at %d, reference %d at %d", fired, label, e.Now(), want, ref.now)
		}
		fired++
		for labels < events && (len(ref.pending) < population || rng.Intn(2) == 0) {
			schedule()
			if rng.Intn(3) != 0 {
				break
			}
		}
		if len(live) > 0 && rng.Intn(4) == 0 {
			i := len(live) - 1 - rng.Intn(min(len(live), 64)) // mostly still queued
			h := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			got, want := h.tm.Cancel(), ref.cancel(h.label)
			if got != want {
				t.Fatalf("Cancel of event %d reported %v, reference %v", h.label, got, want)
			}
			if got {
				cancelled++
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("after a Cancel: %d pending, reference %d", e.Pending(), len(ref.pending))
			}
			stale = append(stale, h)
		}
		// A handle whose event fired or was cancelled, and whose record
		// now carries a queued event, must cancel nothing.
		if len(stale) > 0 {
			h := stale[rng.Intn(len(stale))]
			if h.tm.ev.gen != h.tm.gen && h.tm.ev.index < e.Pending() && e.events[h.tm.ev.index] == h.tm.ev {
				staleChecked++
				if h.tm.Pending() || h.tm.Cancel() || e.Pending() != len(ref.pending) {
					t.Fatalf("stale timer of event %d cancelled the event its record now carries", h.label)
				}
			}
		}
	}
	for range population {
		schedule()
	}
	e.Run()
	if fired+cancelled != events || fired < 100_000 || len(ref.pending) != 0 || e.Pending() != 0 {
		t.Fatalf("%d events fired and %d cancelled of %d; %d pending, reference %d",
			fired, cancelled, events, e.Pending(), len(ref.pending))
	}
	if staleChecked == 0 || ref.waited == 0 {
		t.Fatalf("%d stale timers met a recycled record and %d arrivals a busy process; want both above 0",
			staleChecked, ref.waited)
	}
	t.Logf("%d events fired, %d cancelled, %d arrivals waited, %d stale timers checked",
		fired, cancelled, ref.waited, staleChecked)
}
