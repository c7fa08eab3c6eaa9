// Package sim provides a deterministic discrete-event simulation engine
// with a virtual nanosecond clock. It is the substrate on which the whole
// uBFT reproduction runs: processes, networks, memory nodes and crypto cost
// models all schedule work on a single Engine, which executes events in
// (time, sequence) order. Runs with the same seed are bit-for-bit
// reproducible, which is what lets the benchmark harness regenerate the
// paper's figures deterministically.
//
// An event's callback is a Handler. A long-lived record that arms a timer
// or schedules work for itself (a slot's fallback, a register's cooldown, a
// crypto-pool job) is its own Handler and schedules itself with the Handler
// forms (Proc.AfterH, ExecH, DeliverH), so no closure is made per record or
// per scheduling. The func forms wrap their argument as a Func, which
// allocates nothing either: both kinds of event are ordered, cancelled and
// dropped by a crashed process alike.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration's unit so the usual constants read naturally
// (3 * sim.Microsecond, etc.).
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders a Duration in microseconds, the natural unit of this paper.
func (d Duration) String() string {
	return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
}

// Micros returns the duration in (fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Add advances a Time by a Duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the Duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Timer is a handle to a scheduled event; it can be cancelled before firing.
// It is a small value (no allocation per scheduling); the zero Timer is an
// inert handle whose Cancel and Pending are no-ops. Events are pooled: the
// generation number lets a stale handle (whose event has fired or been
// cancelled, and been recycled for an unrelated scheduling) detect that it
// no longer owns the event instead of cancelling someone else's. A record's
// generation matches a handle exactly while the event is in the queue.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's function from running: the event leaves the
// queue and its record is recycled at once. Cancelling an already fired or
// already cancelled timer (or the zero Timer) is a no-op. It reports whether
// the event was still pending.
func (t Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	e := t.ev.eng
	e.events.remove(t.ev.index)
	e.recycle(t.ev)
	return true
}

// Pending reports whether the timer has neither fired nor been cancelled.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.gen == t.gen }

// Handler is an event callback: Fire runs when its event does.
type Handler interface{ Fire() }

// Func adapts a func() to Handler. A func value is pointer-shaped, so
// converting one to a Handler allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// MsgHandler is a long-lived message-delivery function. Message events
// carry (handler, from, payload) in the event record itself, so delivering
// a message allocates no closure.
type MsgHandler func(from int, payload []byte)

type event struct {
	eng *Engine // the engine whose queue and free list the record belongs to
	at  Time
	seq uint64
	gen uint64
	h   Handler
	// Message-event fast path: when mfn is non-nil it is invoked with
	// (mfrom, mpayload) instead of h.
	mfn      MsgHandler
	mfrom    int
	mpayload []byte
	// proc, when non-nil, is the process the event is delivered to: a
	// crashed process drops the event at fire time. Keeping the check in
	// the engine (rather than a wrapper closure) saves one allocation per
	// scheduling on the hot path.
	proc *Proc
	// deferBusy marks an arrival event that must queue (once) behind the
	// computation its process has in progress at arrival time, mirroring
	// the arrival-then-deliver two-step without a second closure+event.
	deferBusy bool
	requeued  bool
	index     int // position in the queue, kept by every move so Cancel can remove it
}

// before orders events on (at, seq). No two events share a seq, so the order
// is total and every correct priority queue pops events in the same order.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// eventQueue is a 4-ary min-heap of events on (at, seq): the children of
// slot i are slots 4i+1 … 4i+4. A wider node than a binary heap's halves the
// depth a sift walks, and each level's children sit side by side.
type eventQueue []*event

// push adds ev to the queue.
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes the event at slot i out of the queue.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(h[(i-1)/4]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up places ev, whose slot is i, on the path from i to the root.
func (q eventQueue) up(i int, ev *event) {
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// down places ev, whose slot is i, on a path from i to the leaves.
func (q eventQueue) down(i int, ev *event) {
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if !q[least].before(ev) {
			break
		}
		q[i] = q[least]
		q[i].index = i
		i = least
	}
	q[i] = ev
	ev.index = i
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated processes run as callbacks inside Run.
type Engine struct {
	now      Time
	seq      uint64
	events   eventQueue
	free     []*event // recycled event records (steady state allocates none)
	rng      *rand.Rand
	executed uint64
	stopped  bool
	// running is the process whose event is firing (nil between events and
	// for an engine timer).
	running *Proc

	// realtime marks an engine driven against the wall clock (a nettrans
	// host loop) rather than by discrete-event virtual time. In realtime
	// mode CPU cost models are disabled — the CPU work is real, charging
	// its modeled virtual cost on top would double-count it — and the
	// clock may be advanced externally between events (AdvanceTo).
	realtime bool
	// timeScale stretches every delay-based timer (After) by a
	// constant factor. The protocol's timeouts are tuned for the
	// microsecond-scale RDMA fabric the simulation models; a wall-clock
	// deployment over kernel TCP has ~100x the round-trip time, and
	// running e.g. the 200us tail-broadcast retransmit timer at RDMA
	// tuning there turns every in-flight message into a retransmit storm.
	// 0 or 1 means unscaled (the deterministic simulation never scales).
	timeScale int64
}

// NewEngine returns an engine whose randomness is derived from seed.
// Two engines with the same seed and the same scheduled workload produce
// identical executions.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetRealtime switches the engine into wall-clock mode: cost models become
// no-ops and the clock may be advanced externally. The deterministic
// simulation path never calls this.
func (e *Engine) SetRealtime(on bool) { e.realtime = on }

// Realtime reports whether the engine runs in wall-clock mode.
func (e *Engine) Realtime() bool { return e.realtime }

// SetTimeScale stretches every subsequent delay-based timer by factor k
// (see the timeScale field). Realtime hosts set this once at startup.
func (e *Engine) SetTimeScale(k int64) { e.timeScale = k }

// scaleDelay applies the realtime timer stretch to a relative delay.
func (e *Engine) scaleDelay(d Duration) Duration {
	if e.timeScale > 1 {
		return d * Duration(e.timeScale)
	}
	return d
}

// AdvanceTo moves the clock forward to t without executing anything, so
// timers scheduled relative to Now() by the next handler are anchored at
// the wall clock rather than at the last executed event. Moving backward
// is a no-op. Only the realtime host loop uses this.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// NextEventTime reports the timestamp of the earliest queued event. ok is
// false when the queue is empty. The realtime host loop uses it to bound its
// sleep.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// Rand returns the engine's deterministic random source. All simulated
// nondeterminism (jitter, drops, workload choices) must come from here.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of events executed so far (a cheap progress
// and runaway-loop diagnostic).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events still queued. A cancelled timer is
// not among them: Cancel takes its event out of the queue.
func (e *Engine) Pending() int { return len(e.events) }

// schedule enqueues an event, reusing a recycled record when available.
func (e *Engine) schedule(t Time, proc *Proc, h Handler) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.at, ev.seq, ev.proc, ev.h = t, e.seq, proc, h
	e.seq++
	e.events.push(ev)
	return ev
}

// recycle returns an event that left the queue (fired or cancelled) to the
// free list. The generation bump invalidates any Timer handle still pointing
// at it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.h = nil
	ev.mfn = nil
	ev.mpayload = nil
	ev.proc = nil
	ev.deferBusy, ev.requeued = false, false
	e.free = append(e.free, ev)
}

// PostMsg schedules h(from, payload) on proc at arrival time t, queueing
// (once) behind whatever computation proc has in progress at t — the
// message-delivery discipline of Proc.Deliver sampled at arrival — without
// allocating a closure, a Timer, or a second event.
func (e *Engine) PostMsg(t Time, proc *Proc, h MsgHandler, from int, payload []byte) {
	e.msg(t, proc, h, from, payload).deferBusy = true
}

// TakeMsg is PostMsg for a message taken the instant it arrives: h runs at t
// whatever computation proc has in progress, and a crashed proc drops it.
func (e *Engine) TakeMsg(t Time, proc *Proc, h MsgHandler, from int, payload []byte) {
	e.msg(t, proc, h, from, payload)
}

// msg schedules the message event h(from, payload) on proc at t.
func (e *Engine) msg(t Time, proc *Proc, h MsgHandler, from int, payload []byte) *event {
	ev := e.schedule(t, proc, nil)
	ev.mfn, ev.mfrom, ev.mpayload = h, from, payload
	return ev
}

// Running returns the process whose event is firing: nil between events and
// inside an engine timer (At, After).
func (e *Engine) Running() *Proc { return e.running }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a bug in a cost model.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t, nil, Func(fn))
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative durations are
// clamped to zero (run "immediately", after already queued same-time events).
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(e.scaleDelay(d)), fn)
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event. It reports whether an event ran
// (false when the queue is empty). Events bound to a crashed process fire as
// no-ops (the clock still advances, exactly as when the crash check lived in
// a wrapper closure).
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events[0]
		// An arrival event requeues exactly once at the process's free
		// time as sampled now, at arrival — reproducing the two-step
		// arrive-then-Deliver scheme's timing AND its sequence numbering
		// (the delivery always re-enters the queue behind events already
		// scheduled for the same instant), just without the second
		// closure and event allocation. Its key only grows, so it sinks
		// from the root in place.
		if ev.deferBusy && !ev.requeued {
			ev.requeued = true
			if ev.proc != nil && ev.proc.busyUntil > ev.at {
				ev.at = ev.proc.busyUntil
			}
			ev.seq = e.seq
			e.seq++
			e.events.down(0, ev)
			continue
		}
		e.events.remove(0)
		// In pure virtual time events pop in nondecreasing order so this
		// assignment only ever moves the clock forward; the guard matters
		// in realtime mode, where AdvanceTo may have pushed the clock past
		// an event that was waiting for its wall-clock due time.
		if ev.at > e.now {
			e.now = ev.at
		}
		e.executed++
		proc := ev.proc
		crashed := proc != nil && proc.crashed
		e.running = proc
		if ev.mfn != nil {
			mfn, mfrom, mpayload := ev.mfn, ev.mfrom, ev.mpayload
			e.recycle(ev)
			if !crashed {
				mfn(mfrom, mpayload)
			}
		} else {
			h := ev.h
			e.recycle(ev)
			if !crashed {
				h.Fire()
			}
		}
		e.running = nil
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it advanced that far). Events scheduled beyond deadline
// remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor runs the simulation for d nanoseconds of virtual time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
