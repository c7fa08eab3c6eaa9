package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/byz"
	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestOracleNamesAConflictingDecision: a second digest decided for a
// recorded slot panics with a Divergence naming the group, the slot, both
// views, both requests, both replicas and both times; the same digest
// decided again, in another view, by another replica, is agreement.
func TestOracleNamesAConflictingDecision(t *testing.T) {
	eng := sim.NewEngine(1)
	o := newGroupOracle(3, eng, nil, 8)
	a := consensus.Request{Client: 200, Num: 7, Payload: []byte("SET a")}
	b := consensus.Request{Client: 201, Num: 9, Payload: []byte("SET b")}
	eng.RunFor(5 * sim.Microsecond)
	o.decided(1, 5, 2, &a)
	eng.RunFor(7 * sim.Microsecond)
	o.decided(0, 5, 3, &a)
	d := Diverged(func() { o.decided(2, 5, 4, &b) })
	if d == nil {
		t.Fatal("two requests decided for slot 5: no divergence")
	}
	want := Divergence{Group: 3, Slots: [2]consensus.Slot{5, 5}, Views: [2]consensus.View{2, 4},
		Replicas: [2]ids.ID{1, 2}, Times: [2]sim.Time{sim.Time(5 * sim.Microsecond), sim.Time(12 * sim.Microsecond)}}
	got := *d
	got.Requests = [2]string{}
	if got != want {
		t.Fatalf("divergence %+v, want %+v", got, want)
	}
	da, db := a.Digest(), b.Digest()
	if d.Requests[0] != fmt.Sprintf("client p200 #7 (%x)", da[:4]) || d.Requests[1] != fmt.Sprintf("client p201 #9 (%x)", db[:4]) {
		t.Fatalf("requests named %q", d.Requests)
	}
	msg := d.Error()
	for _, part := range []string{"group 3", "slot 5", "view 2", "view 4", "replica p1", "replica p2", "5.000us", "12.000us", d.Requests[0], d.Requests[1]} {
		if !strings.Contains(msg, part) {
			t.Errorf("%q does not name %q", msg, part)
		}
	}
}

// TestOracleCatchesADoubleExecution: one client request executed at two
// slots is the exactly-once symptom; executing it at one slot on every
// replica is not.
func TestOracleCatchesADoubleExecution(t *testing.T) {
	eng := sim.NewEngine(1)
	o := newGroupOracle(0, eng, nil, 8)
	r := consensus.Request{Client: 200, Num: 9, Payload: []byte("x")}
	o.decided(0, 4, 1, &r)
	o.executed(0, 200, 9, 4)
	o.executed(1, 200, 9, 4)
	o.decided(2, 6, 2, &consensus.Request{Client: 200, Num: 10})
	d := Diverged(func() { o.executed(2, 200, 9, 6) })
	if d == nil || d.Slots != [2]consensus.Slot{4, 6} || d.Views != [2]consensus.View{1, 2} || d.Replicas != [2]ids.ID{0, 2} {
		t.Fatalf("client 200 #9 executed at slots 4 and 6: %+v", d)
	}
	if msg := d.Error(); !strings.Contains(msg, "group 0 executed client p200 #9 at slot 4") || !strings.Contains(msg, "client p200 #9 at slot 6") {
		t.Fatalf("unhelpful report: %s", msg)
	}
}

// TestOracleIgnoresInfectedReplicas: what a Byzantine replica decides or
// executes constrains nothing, and an assembly on a simulated network learns
// who is Byzantine from the network's outbound rewrites.
func TestOracleIgnoresInfectedReplicas(t *testing.T) {
	net := simnet.New(sim.NewEngine(1), simnet.RDMAOptions())
	byz.Infect(net, 0, byz.Passthrough{})
	o := newGroupOracle(0, net.Engine(), net, 8)
	a := consensus.Request{Client: 200, Num: 1, Payload: []byte("a")}
	b := consensus.Request{Client: 200, Num: 1, Payload: []byte("b")}
	if d := Diverged(func() {
		o.decided(0, 3, 0, &b) // the infected leader's own version
		o.executed(0, 200, 1, 2)
		o.decided(1, 3, 0, &a)
		o.decided(2, 3, 0, &a)
		o.executed(1, 200, 1, 3)
	}); d != nil {
		t.Fatalf("infected replica 0 counted: %v", d)
	}

	u := NewUBFT(Options{Seed: 1, Fabric: simnet.AsFabric(net)})
	defer u.Stop()
	if o := u.asm.Groups[0].oracle; !o.skips(0) || o.skips(1) {
		t.Fatal("the assembly's oracle does not read the network's Byzantine set")
	}
}

// TestOracleAllocatesNothingPerDecision: once its rings exist, checking a
// decision and an execution allocates nothing.
func TestOracleAllocatesNothingPerDecision(t *testing.T) {
	o := newGroupOracle(0, sim.NewEngine(1), nil, 8)
	reqs := make([]consensus.Request, 64)
	for i := range reqs {
		reqs[i] = consensus.Request{Client: 200, Num: uint64(i), Payload: []byte("x")}
		reqs[i].Digest() // the replica's request carries its digest
	}
	s := consensus.Slot(0)
	allocs := testing.AllocsPerRun(200, func() {
		r := &reqs[s%64]
		for p := ids.ID(0); p < 3; p++ {
			o.decided(p, s, 0, r)
			o.executed(p, r.Client, uint64(s), s)
		}
		s++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per decision", allocs)
	}
}

// TestOracleFootprintIsFlat is the rings' retention rule: over many
// checkpoint intervals the oracle keeps its 2 x Window records of each kind,
// allocated at assembly, and they hold only the most recent slots.
func TestOracleFootprintIsFlat(t *testing.T) {
	const window = 8
	u := NewUBFT(Options{Seed: 1, Window: window, Tail: window, NewApp: func() app.StateMachine { return app.NewKV(0) }})
	defer u.Stop()
	o := u.asm.Groups[0].oracle
	decisions, execs := &o.decisions[0], &o.execs[0]
	for i := 0; i < 20*window; i++ {
		if res, _, _ := u.InvokeSync(0, app.EncodeKVSet([]byte(fmt.Sprint("k", i)), []byte("v")), 10*sim.Millisecond); res == nil {
			t.Fatalf("op %d failed", i)
		}
	}
	if &o.decisions[0] != decisions || &o.execs[0] != execs || len(o.decisions) != 2*window || len(o.execs) != 2*window {
		t.Fatalf("rings reallocated or resized: %d decisions, %d executions", len(o.decisions), len(o.execs))
	}
	top := u.Replicas[0].LastApplied()
	for _, d := range o.decisions {
		if !d.set || d.slot+2*window < top {
			t.Fatalf("decision ring holds %+v with slot %d applied", d, top)
		}
	}
	for _, e := range o.execs {
		if !e.set {
			t.Fatalf("execution ring not full after %d SETs: %+v", 20*window, o.execs)
		}
	}
}
