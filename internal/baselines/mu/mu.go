// Package mu reimplements the normal-case replication path of Mu (OSDI'20),
// the crash-fault-tolerant SMR system the paper uses as its speed-of-light
// baseline (§7.1-7.2). Mu's leader replicates a request by RDMA-writing it
// into a log on each follower and waits for a majority of writes to
// complete before executing and replying; followers poll their logs and
// apply in the background. Mu tolerates only crashes — a Byzantine leader
// can trivially diverge the replicas — which is exactly the gap uBFT
// closes for ~2x the latency.
//
// Leader failover in Mu works by revoking the RDMA write permission of the
// old leader at a majority of followers; this package implements a
// simplified permission-register variant sufficient for crash-failover
// tests (the paper's evaluation only exercises the normal case).
package mu

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Mu's private wire format on ChanBaseline.
//
//ubft:tagregistry Mu baseline speaks its own self-contained protocol, not the uBFT registry
const (
	tagRequest   uint8 = 1
	tagResponse  uint8 = 2
	tagLogWrite  uint8 = 3 // leader -> follower: RDMA write of a log entry
	tagLogAck    uint8 = 4 // follower NIC -> leader: write completion
	tagPermMove  uint8 = 5 // failover: follower grants leadership to a new replica
	tagHeartbeat uint8 = 6
)

// Config assembles one Mu replica.
type Config struct {
	Self     ids.ID
	Replicas []ids.ID // majority quorums: tolerate floor((n-1)/2) crashes
	App      app.StateMachine
	// HeartbeatTimeout triggers failover; zero disables it.
	HeartbeatTimeout sim.Duration
}

// Replica is one Mu replica.
type Replica struct {
	cfg  Config
	rt   *router.Router
	proc *sim.Proc

	leader   ids.ID
	nextSlot uint64
	log      map[uint64][]byte
	applied  uint64

	// Leader-side per-slot ack counting.
	acks    map[uint64]int
	reqMeta map[uint64]reqMeta

	// Failover.
	lastHeartbeat sim.Time
	permHolders   map[ids.ID]ids.ID // follower -> who it granted write permission

	// Executed counts applied entries (tests).
	Executed uint64
}

type reqMeta struct {
	client ids.ID
	num    uint64
}

// NewReplica wires a Mu replica; the first replica in cfg.Replicas starts
// as leader.
func NewReplica(cfg Config, rt *router.Router) *Replica {
	r := &Replica{
		cfg:         cfg,
		rt:          rt,
		proc:        rt.Node().Proc(),
		leader:      cfg.Replicas[0],
		log:         make(map[uint64][]byte),
		acks:        make(map[uint64]int),
		reqMeta:     make(map[uint64]reqMeta),
		permHolders: make(map[ids.ID]ids.ID),
	}
	rt.Register(router.ChanBaseline, r.onMsg)
	rt.Register(router.ChanRPC, r.onRPC)
	if cfg.HeartbeatTimeout > 0 {
		r.armFailover()
		if r.isLeader() {
			// Deferred so the whole cluster is wired before the first beat.
			r.proc.After(0, func() { r.heartbeat() })
		}
	}
	return r
}

// Stop crash-stops the replica: its process crashes, and with it every
// queued delivery and timer.
func (r *Replica) Stop() { r.proc.Crash() }

// Leader returns the replica's current leader belief.
func (r *Replica) Leader() ids.ID { return r.leader }

func (r *Replica) isLeader() bool { return r.leader == r.cfg.Self }

func (r *Replica) majority() int { return len(r.cfg.Replicas)/2 + 1 }

// onRPC handles client requests (clients talk to the leader).
func (r *Replica) onRPC(from ids.ID, payload []byte) {
	rd := wire.NewReader(payload)
	if rd.U8() != tagRequest {
		return
	}
	num := rd.U64()
	req := rd.Bytes()
	if rd.Done() != nil {
		return
	}
	if !r.isLeader() {
		return // clients learn the leader out of band; drop
	}
	slot := r.nextSlot
	r.nextSlot++
	r.log[slot] = req
	r.reqMeta[slot] = reqMeta{client: from, num: num}
	r.acks[slot] = 1 // our own copy
	// RDMA-write the entry into every follower's log (one-sided; the
	// follower CPU is not involved in the ack, so the "ack" is the NIC
	// write completion, modeled as an immediate bounce).
	w := wire.NewWriter(24 + len(req))
	w.U8(tagLogWrite)
	w.U64(slot)
	w.Bytes(req)
	frame := w.Finish()
	for _, q := range r.cfg.Replicas {
		if q != r.cfg.Self {
			r.rt.Send(q, router.ChanBaseline, frame)
		}
	}
	r.tryExecute(slot)
}

func (r *Replica) onMsg(from ids.ID, payload []byte) {
	rd := wire.NewReader(payload)
	switch rd.U8() {
	case tagLogWrite:
		slot := rd.U64()
		entry := rd.Bytes()
		if rd.Done() != nil {
			return
		}
		// Followers accept writes only from the permission holder.
		if holder, ok := r.permHolders[r.cfg.Self]; ok && holder != from {
			return
		}
		if from != r.leader && r.leader != r.cfg.Self {
			r.leader = from // adopt the writer as leader (permission model)
		}
		r.log[slot] = entry
		r.lastHeartbeat = r.proc.Now()
		// NIC write-completion bounce (no CPU charge at the follower).
		w := wire.NewWriter(16)
		w.U8(tagLogAck)
		w.U64(slot)
		r.rt.Send(from, router.ChanBaseline, w.Finish())
		r.applyReady()
	case tagLogAck:
		slot := rd.U64()
		if rd.Done() != nil {
			return
		}
		r.acks[slot]++
		r.tryExecute(slot)
	case tagHeartbeat:
		r.lastHeartbeat = r.proc.Now()
	case tagPermMove:
		newLeader := ids.ID(rd.I64())
		if rd.Done() != nil {
			return
		}
		r.permHolders[r.cfg.Self] = newLeader
		r.leader = newLeader
	}
}

// tryExecute runs at the leader once a majority holds the entry.
func (r *Replica) tryExecute(slot uint64) {
	if !r.isLeader() || r.acks[slot] < r.majority() {
		return
	}
	r.applyReady()
}

// applyReady applies log entries in order.
func (r *Replica) applyReady() {
	for {
		entry, ok := r.log[r.applied]
		if !ok {
			return
		}
		if r.isLeader() && r.acks[r.applied] < r.majority() {
			return // leader waits for majority before executing
		}
		slot := r.applied
		r.applied++
		r.proc.Charge(r.cfg.App.ExecCost(entry) + latmodel.AppExecBase)
		result := r.cfg.App.Apply(entry)
		r.Executed++
		if meta, ok := r.reqMeta[slot]; ok && r.isLeader() {
			w := wire.NewWriter(16 + len(result))
			w.U8(tagResponse)
			w.U64(meta.num)
			w.Bytes(result)
			r.rt.Send(meta.client, router.ChanRPC, w.Finish())
			delete(r.reqMeta, slot)
		}
	}
}

// heartbeat keeps followers from suspecting a healthy leader.
func (r *Replica) heartbeat() {
	if !r.isLeader() || r.cfg.HeartbeatTimeout <= 0 {
		return
	}
	w := wire.NewWriter(4)
	w.U8(tagHeartbeat)
	for _, q := range r.cfg.Replicas {
		if q != r.cfg.Self {
			r.rt.Send(q, router.ChanBaseline, w.Finish())
		}
	}
	r.proc.After(r.cfg.HeartbeatTimeout/3, func() { r.heartbeat() })
}

// armFailover monitors the leader and claims leadership when it goes
// silent (simplified permission-switch failover).
func (r *Replica) armFailover() {
	if r.cfg.HeartbeatTimeout <= 0 {
		return
	}
	r.proc.After(r.cfg.HeartbeatTimeout, func() {
		if !r.isLeader() && r.proc.Now().Sub(r.lastHeartbeat) >= r.cfg.HeartbeatTimeout {
			if r.nextInLine() == r.cfg.Self {
				r.claimLeadership()
			}
		}
		r.armFailover()
	})
}

// nextInLine picks the lowest-ranked replica after the current leader.
func (r *Replica) nextInLine() ids.ID {
	for i, q := range r.cfg.Replicas {
		if q == r.leader {
			return r.cfg.Replicas[(i+1)%len(r.cfg.Replicas)]
		}
	}
	return r.cfg.Replicas[0]
}

func (r *Replica) claimLeadership() {
	r.leader = r.cfg.Self
	r.nextSlot = r.applied
	w := wire.NewWriter(16)
	w.U8(tagPermMove)
	w.I64(int64(r.cfg.Self))
	for _, q := range r.cfg.Replicas {
		if q != r.cfg.Self {
			r.rt.Send(q, router.ChanBaseline, w.Finish())
		}
	}
	r.heartbeat()
}

// Client is a Mu client; it tracks the leader and retries on silence.
type Client struct {
	rt       *router.Router
	proc     *sim.Proc
	replicas []ids.ID
	leader   int
	nextNum  uint64
	pending  map[uint64]pendingCall
}

type pendingCall struct {
	started sim.Time
	payload []byte
	done    func([]byte, sim.Duration)
	retry   sim.Timer
}

// NewClient wires a Mu client.
func NewClient(rt *router.Router, replicas []ids.ID) *Client {
	if len(replicas) == 0 {
		panic(fmt.Sprintf("mu: no replicas"))
	}
	c := &Client{rt: rt, proc: rt.Node().Proc(), replicas: replicas, pending: make(map[uint64]pendingCall)}
	rt.Register(router.ChanRPC, c.onResponse)
	return c
}

// Invoke sends one request to the current leader; on timeout it rotates to
// the next replica (failover support).
func (c *Client) Invoke(payload []byte, done func(result []byte, latency sim.Duration)) {
	c.nextNum++
	num := c.nextNum
	pc := pendingCall{started: c.proc.Now(), payload: payload, done: done}
	c.pending[num] = pc
	c.send(num)
}

func (c *Client) send(num uint64) {
	pc, ok := c.pending[num]
	if !ok {
		return
	}
	w := wire.NewWriter(16 + len(pc.payload))
	w.U8(tagRequest)
	w.U64(num)
	w.Bytes(pc.payload)
	c.rt.Send(c.replicas[c.leader], router.ChanRPC, w.Finish())
	pc.retry = c.proc.After(500*sim.Microsecond, func() {
		if _, still := c.pending[num]; still {
			c.leader = (c.leader + 1) % len(c.replicas)
			c.send(num)
		}
	})
	c.pending[num] = pc
}

func (c *Client) onResponse(from ids.ID, payload []byte) {
	rd := wire.NewReader(payload)
	if rd.U8() != tagResponse {
		return
	}
	num := rd.U64()
	result := rd.Bytes()
	if rd.Done() != nil {
		return
	}
	pc, ok := c.pending[num]
	if !ok {
		return
	}
	pc.retry.Cancel()
	delete(c.pending, num)
	pc.done(result, c.proc.Now().Sub(pc.started))
}
