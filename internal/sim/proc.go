package sim

import "fmt"

// Proc models one simulated process (a replica, a client, a memory node).
// It tracks a busy-until horizon so that CPU work (cryptography, hashing,
// buffer copies) serializes: an event delivered while the process is busy
// waits until the process frees up, exactly like a single-threaded event
// loop. This is what produces the "Other" (queuing/glue) latency category in
// the paper's Figure 9 breakdown.
type Proc struct {
	eng       *Engine
	name      string
	busyUntil Time
	crashed   bool
	host      *Proc // the host's main process, for a core made by NewCore
}

// NewProc creates a process bound to the engine.
func NewProc(eng *Engine, name string) *Proc {
	return &Proc{eng: eng, name: name}
}

// NewCore creates another core of p's host (a crypto pool, a read core): a
// process with its own busy horizon whose Host is p. A message a core's
// event sends is that core's post (simnet.Node.Send).
func (p *Proc) NewCore(name string) *Proc {
	return &Proc{eng: p.eng, name: name, host: p}
}

// Host returns the main process of p's host: p itself unless p was made by
// NewCore.
func (p *Proc) Host() *Proc {
	if p.host != nil {
		return p.host
	}
	return p
}

// Engine returns the engine the process is bound to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Crash stops the process: every subsequent delivery or execution on it is
// dropped. Crashes are permanent (crash-stop model).
func (p *Proc) Crash() { p.crashed = true }

// Crashed reports whether the process has crashed.
func (p *Proc) Crashed() bool { return p.crashed }

// free returns the earliest time the process can start new work.
func (p *Proc) free() Time {
	if p.busyUntil > p.eng.Now() {
		return p.busyUntil
	}
	return p.eng.Now()
}

// Deliver schedules fn to run on this process as soon as it is free.
// Use it for message/handler delivery: if the process is mid-computation
// the handler queues behind it. The crash check happens at fire time in the
// engine; no wrapper closure is allocated.
func (p *Proc) Deliver(fn func()) Timer { return p.DeliverH(Func(fn)) }

// DeliverH is Deliver for a Handler.
func (p *Proc) DeliverH(h Handler) Timer {
	ev := p.eng.schedule(p.free(), p, h)
	return Timer{ev: ev, gen: ev.gen}
}

// PostMsg is Deliver for a long-lived MsgHandler, without a cancellation
// handle: the (from, payload) arguments ride in the event record, so the
// delivery allocates neither a closure nor a Timer.
func (p *Proc) PostMsg(h MsgHandler, from int, payload []byte) {
	ev := p.eng.schedule(p.free(), p, nil)
	ev.mfn, ev.mfrom, ev.mpayload = h, from, payload
}

// Exec schedules fn after the process performs cost worth of CPU work.
// The work starts when the process is next free and extends its busy
// horizon, so concurrent Execs serialize.
func (p *Proc) Exec(cost Duration, fn func()) Timer { return p.ExecH(cost, Func(fn)) }

// ExecH is Exec for a Handler.
func (p *Proc) ExecH(cost Duration, h Handler) Timer { return p.execFrom(0, cost, h) }

// ExecFrom is Exec for work handed over at t, which may lie past the current
// event (another process of the node finishes preparing it then): the work
// starts when the process is next free, but no earlier than t.
func (p *Proc) ExecFrom(t Time, cost Duration, fn func()) Timer { return p.execFrom(t, cost, Func(fn)) }

func (p *Proc) execFrom(t Time, cost Duration, h Handler) Timer {
	if cost < 0 {
		panic(fmt.Sprintf("sim: negative exec cost %d on %s", cost, p.name))
	}
	if p.eng.realtime {
		cost = 0 // the CPU work is real; don't add its model on top
	}
	start := max(p.free(), t)
	end := start.Add(cost)
	p.busyUntil = end
	ev := p.eng.schedule(end, p, h)
	return Timer{ev: ev, gen: ev.gen}
}

// Charge accounts cost of CPU work synchronously: it extends the busy
// horizon without scheduling a continuation. Use it inside a handler for
// work whose result is needed inline (e.g. a checksum computed before
// sending).
func (p *Proc) Charge(cost Duration) {
	if cost < 0 {
		panic(fmt.Sprintf("sim: negative charge %d on %s", cost, p.name))
	}
	if p.eng.realtime {
		return // the CPU work is real; don't add its model on top
	}
	p.busyUntil = p.free().Add(cost)
}

// After schedules fn to run d from now regardless of busy state (a timer,
// not CPU work). Crashed processes never fire their timers.
func (p *Proc) After(d Duration, fn func()) Timer { return p.AfterH(d, Func(fn)) }

// AfterH is After for a Handler.
func (p *Proc) AfterH(d Duration, h Handler) Timer {
	if d < 0 {
		d = 0
	}
	ev := p.eng.schedule(p.eng.now.Add(p.eng.scaleDelay(d)), p, h)
	return Timer{ev: ev, gen: ev.gen}
}

// Since returns how long ago t was, in the units After takes: where timers
// are stretched (Engine.SetTimeScale) elapsed time shrinks by the same
// factor, so an interval measured with Since and waited for with After is
// the same interval on the simulated fabric and on a realtime host.
func (p *Proc) Since(t Time) Duration {
	d := p.eng.now.Sub(t)
	if p.eng.timeScale > 1 {
		d /= Duration(p.eng.timeScale)
	}
	return d
}

// BusyUntil exposes the busy horizon (used by tests and the latency
// breakdown tracer).
func (p *Proc) BusyUntil() Time { return p.busyUntil }
