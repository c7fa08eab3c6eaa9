package sim

import (
	"slices"
	"testing"
)

// tag is a Handler that records its id, and the time it fired, in a log.
type tag struct {
	id  int
	log *[]stamp
	e   *Engine
}

type stamp struct {
	id int
	at Time
}

func (h *tag) Fire() { *h.log = append(*h.log, stamp{h.id, h.e.Now()}) }

// scheduleMix puts the same mix of After, Exec and Deliver events on p,
// interleaved at the same instants, each event through the func form when
// handlers is false and through the Handler form when it is true.
func scheduleMix(e *Engine, p *Proc, handlers bool, log *[]stamp) []Timer {
	var tms []Timer
	for i := range 12 {
		h := &tag{id: i, log: log, e: e}
		fn := h.Fire
		switch i % 3 {
		case 0:
			d := Duration(10 * (i % 4))
			if handlers {
				tms = append(tms, p.AfterH(d, h))
			} else {
				tms = append(tms, p.After(d, fn))
			}
		case 1:
			if handlers {
				tms = append(tms, p.ExecH(5, h))
			} else {
				tms = append(tms, p.Exec(5, fn))
			}
		default:
			if handlers {
				tms = append(tms, p.DeliverH(h))
			} else {
				tms = append(tms, p.Deliver(fn))
			}
		}
	}
	return tms
}

// TestHandlerEventsFireInFuncOrder: Handler events fire in the (time, seq)
// order the same events get through the func forms, at the same instants.
func TestHandlerEventsFireInFuncOrder(t *testing.T) {
	var funcs, handlers []stamp
	for _, c := range []struct {
		handlers bool
		log      *[]stamp
	}{{false, &funcs}, {true, &handlers}} {
		e := NewEngine(1)
		scheduleMix(e, NewProc(e, "p"), c.handlers, c.log)
		e.Run()
	}
	if len(funcs) != 12 || !slices.Equal(funcs, handlers) {
		t.Fatalf("func events fired %v\nHandler events fired %v", funcs, handlers)
	}
}

// TestHandlerTimerCancelAndStaleHandle: a Handler event's Timer cancels and
// reports Pending as a func event's does, and a stale handle does not reach
// the record a later Handler event reuses.
func TestHandlerTimerCancelAndStaleHandle(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	var log []stamp
	tms := scheduleMix(e, p, true, &log)
	for _, i := range []int{3, 4, 5} { // one of each form
		if !tms[i].Pending() || !tms[i].Cancel() || tms[i].Pending() || tms[i].Cancel() {
			t.Fatalf("event %d: cancel of a pending Handler event", i)
		}
	}
	if e.Pending() != 9 {
		t.Fatalf("Pending = %d after cancelling 3 of 12, want 9", e.Pending())
	}
	reused := p.AfterH(1, &tag{id: 100, log: &log, e: e})
	if tms[5].Cancel() || tms[5].Pending() || !reused.Pending() {
		t.Fatal("stale handle reached a recycled record")
	}
	e.Run()
	if reused.Pending() || reused.Cancel() {
		t.Fatal("fired Handler event still pending")
	}
	if len(log) != 10 || slices.ContainsFunc(log, func(s stamp) bool { return s.id >= 3 && s.id <= 5 }) {
		t.Fatalf("fired %v: want the 9 uncancelled events and the reused one", log)
	}
}

// TestCrashedProcDropsHandlerEvents: a crashed process fires none of its
// Handler events.
func TestCrashedProcDropsHandlerEvents(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	var log []stamp
	scheduleMix(e, p, true, &log)
	p.Crash()
	e.Run()
	if len(log) != 0 {
		t.Fatalf("crashed process fired %v", log)
	}
}

// TestExecHExtendsBusyHorizon: ExecH serializes CPU work as Exec does, and
// a Handler delivered meanwhile queues behind it.
func TestExecHExtendsBusyHorizon(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	var log []stamp
	p.ExecH(100, &tag{id: 1, log: &log, e: e})
	p.Exec(50, (&tag{id: 2, log: &log, e: e}).Fire)
	if p.BusyUntil() != 150 {
		t.Fatalf("busy until %d, want 150", p.BusyUntil())
	}
	p.DeliverH(&tag{id: 3, log: &log, e: e})
	e.Run()
	if want := []stamp{{1, 100}, {2, 150}, {3, 150}}; !slices.Equal(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// TestFuncFormsAllocateNothing: once the engine's event records are warm,
// scheduling allocates nothing through either form; a func form wraps its
// func as a Func without an allocation.
func TestFuncFormsAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	p := NewProc(e, "p")
	n := 0
	fn := func() { n++ }
	h := Func(fn)
	if allocs := testing.AllocsPerRun(100, func() {
		p.After(1, fn)
		p.AfterH(1, h)
		p.Deliver(fn)
		p.Exec(1, fn)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("scheduling allocates %.1f a run, want 0", allocs)
	}
}
