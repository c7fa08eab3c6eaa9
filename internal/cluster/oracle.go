package cluster

// This file is the agreement oracle every assembly runs (§5's safety claim:
// no two correct replicas decide different requests for one slot). Each
// replica's decide and execute steps report to it as they happen, through
// the two consensus.Deps hooks wireReplica installs, and the first conflict
// panics with a *Divergence. CheckAgreement is the end-of-run state check
// beside it.

import (
	"bytes"
	"fmt"

	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/xcrypto"
)

// Divergence is the agreement oracle's report that two correct replicas of
// one group disagree: they decided different requests for one slot, or one
// client request executed at two slots (the exactly-once symptom). The
// oracle panics with it at the second decision or execution.
type Divergence struct {
	Group    int
	Slots    [2]consensus.Slot // the same slot twice for two decisions
	Views    [2]consensus.View // the views the slots were decided in
	Requests [2]string
	Replicas [2]ids.ID
	Times    [2]sim.Time
}

func (d *Divergence) Error() string {
	what := "decided"
	if d.Slots[0] != d.Slots[1] {
		what = "executed"
	}
	return fmt.Sprintf("agreement oracle: group %d %s %s at slot %d in view %d by replica %v at %v, and %s at slot %d in view %d by replica %v at %v",
		d.Group, what, d.Requests[0], d.Slots[0], d.Views[0], d.Replicas[0], d.Times[0].Sub(0),
		d.Requests[1], d.Slots[1], d.Views[1], d.Replicas[1], d.Times[1].Sub(0))
}

// Diverged runs f and returns the Divergence the oracle panicked with inside
// it, or nil; any other panic goes on. It is for the harnesses that count a
// divergence as an outcome rather than a failed test. The deployment must
// not run again after a divergence.
func Diverged(f func()) (d *Divergence) {
	defer func() {
		if r := recover(); r != nil {
			if d, _ = r.(*Divergence); d == nil {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

// record is the first decision the oracle saw for one slot, or the first
// slot at which one client request executed (digest unset).
type record struct {
	set    bool
	slot   consensus.Slot
	view   consensus.View
	by     ids.ID
	at     sim.Time
	client ids.ID
	num    uint64
	digest [xcrypto.DigestLen]byte
}

// groupOracle checks one group. Its two rings hold 2 x Window records each,
// allocated once: the decisions by slot, the executions by a hash of (client,
// num). A record gives way only to one of a later slot, which leaves the
// check of what it held blind; a conflict needs two records of the same slot
// or the same request, so a full ring never reports a false one. Byzantine
// replicas (simnet.Network.Byzantine) are not checked.
type groupOracle struct {
	group            int
	eng              *sim.Engine
	net              *simnet.Network // nil: nobody is Byzantine
	decisions, execs []record
}

func newGroupOracle(group int, eng *sim.Engine, net *simnet.Network, window int) *groupOracle {
	return &groupOracle{group: group, eng: eng, net: net,
		decisions: make([]record, 2*window), execs: make([]record, 2*window)}
}

func (o *groupOracle) skips(id ids.ID) bool { return o.net != nil && o.net.Byzantine(id) }

// decided is consensus.Deps.Decided.
func (o *groupOracle) decided(self ids.ID, s consensus.Slot, v consensus.View, req *consensus.Request) {
	if o.skips(self) {
		return
	}
	r := &o.decisions[s%consensus.Slot(len(o.decisions))]
	now := record{true, s, v, self, o.eng.Now(), req.Client, req.Num, req.Digest()}
	switch {
	case r.set && r.slot == s && r.digest != now.digest:
		o.diverge(r, &now, describe(*r), describe(now))
	case !r.set || s > r.slot:
		*r = now
	}
}

// executed is consensus.Deps.Executed.
func (o *groupOracle) executed(self, client ids.ID, num uint64, s consensus.Slot) {
	if o.skips(self) {
		return
	}
	r := &o.execs[(uint64(client)*0x9E3779B97F4A7C15^num)%uint64(len(o.execs))]
	now := record{set: true, slot: s, by: self, at: o.eng.Now(), client: client, num: num}
	// The replica reported its decision of s before executing it: unless a
	// later slot has taken that record, it has the view s was decided in.
	if d := &o.decisions[s%consensus.Slot(len(o.decisions))]; d.set && d.slot == s {
		now.view = d.view
	}
	switch {
	case r.set && r.client == client && r.num == num:
		if r.slot != s {
			what := fmt.Sprintf("client %v #%d", client, num)
			o.diverge(r, &now, what, what)
		}
	case !r.set || s >= r.slot:
		*r = now
	}
}

func (o *groupOracle) diverge(first, second *record, req0, req1 string) {
	panic(&Divergence{Group: o.group, Slots: [2]consensus.Slot{first.slot, second.slot},
		Views: [2]consensus.View{first.view, second.view}, Requests: [2]string{req0, req1},
		Replicas: [2]ids.ID{first.by, second.by}, Times: [2]sim.Time{first.at, second.at}})
}

// describe names a decided request: a client request by its client, number
// and digest prefix, a container by its digest prefix.
func describe(r record) string {
	switch req := (consensus.Request{Client: r.client}); {
	case req.IsNoOp():
		return "no-op"
	case req.IsBatch():
		return fmt.Sprintf("batch %x", r.digest[:4])
	}
	return fmt.Sprintf("client %v #%d (%x)", r.client, r.num, r.digest[:4])
}

// CheckAgreement is the end-of-run state check: within each group, any two
// live, uninfected replicas that applied equally many slots hold
// byte-identical application state.
func (a *Assembly) CheckAgreement() error {
	for _, grp := range a.Groups {
		checked := func(i int) bool {
			id := grp.ReplicaIDs[i]
			return grp.Replicas[i] != nil && a.alive(id) && !grp.oracle.skips(id)
		}
		for i, r := range grp.Replicas {
			for j := i + 1; j < len(grp.Replicas); j++ {
				if checked(i) && checked(j) && r.LastApplied() == grp.Replicas[j].LastApplied() &&
					!bytes.Equal(grp.Apps[i].Snapshot(), grp.Apps[j].Snapshot()) {
					return fmt.Errorf("cluster: group %d: replicas %d and %d applied %d slots and hold different state",
						grp.Index, i, j, r.LastApplied())
				}
			}
		}
	}
	return nil
}
