package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// This file is the outside-in tracer. Every span is recorded from bench/
// code wrapped around a call into a layer:
//
//   - tracedFabric wraps a transport.Fabric: each Send and each handler
//     invocation of every endpoint created through it becomes a span
//     carrying node, peer, router channel tag, bytes, virtual start and host
//     duration. A handler span's parent is the Send span that carried its
//     message; a Send span's parent is the handler (or client call) it was
//     made from, so the spans of one request form a tree under its root.
//   - tracedFlip/KV/RKV embed the concrete application and time Apply and
//     the read executors as children of the handler that caused them.
//   - the harness records the client call as the root span (begin/done).
//
// Counts and host-time sums are kept for every span; the spans themselves
// are kept up to spanCap and written out when the run ends.

// spanCap bounds the spans kept in memory per traced run (sums cover all).
const spanCap = 100_000

type spanKind uint8

const (
	spanInvoke spanKind = iota
	spanSend
	spanHandle
	spanApply
	spanApplyRead
)

var spanNames = [...]string{"invoke", "send", "handle", "apply", "apply_read"}
var spanLayers = [...]string{"client", "transport", "transport", "app", "app"}

// span is one recorded interval. VStartNs is the node's engine time (virtual
// on sim-*, nanoseconds since host start on net-*); HostNs is host time.
type span struct {
	ID, Parent uint64
	Req        uint64 // root request this span belongs to (0: none, e.g. a timer retransmit)
	Kind       spanKind
	Node, Peer int
	Chan       uint8
	Bytes      int
	VStartNs   int64
	HostNs     int64
}

// MarshalJSON writes the span with its kind and layer spelled out.
func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID       uint64 `json:"id"`
		Parent   uint64 `json:"parent"`
		Req      uint64 `json:"req"`
		Name     string `json:"name"`
		Layer    string `json:"layer"`
		Node     int    `json:"node"`
		Peer     int    `json:"peer"`
		Chan     uint8  `json:"chan"`
		Bytes    int    `json:"bytes"`
		VStartNs int64  `json:"vstart_ns"`
		HostNs   int64  `json:"host_ns"`
	}{s.ID, s.Parent, s.Req, spanNames[s.Kind], spanLayers[s.Kind], s.Node, s.Peer, s.Chan, s.Bytes, s.VStartNs, s.HostNs})
}

// chanSums are the per-channel totals the transport.* metrics come from.
type chanSums struct {
	Sends, SendBytes int64
	Handles          int64
	HandlerSelfNs    int64 // handler host time minus the app spans inside it
}

// traceSums are the totals of one counting window.
type traceSums struct {
	Chan    [256]chanSums
	Applies int64
	ApplyNs int64
}

func (a *traceSums) add(b *traceSums) {
	for i := range a.Chan {
		a.Chan[i].Sends += b.Chan[i].Sends
		a.Chan[i].SendBytes += b.Chan[i].SendBytes
		a.Chan[i].Handles += b.Chan[i].Handles
		a.Chan[i].HandlerSelfNs += b.Chan[i].HandlerSelfNs
	}
	a.Applies += b.Applies
	a.ApplyNs += b.ApplyNs
}

// tracer owns the span ids, the per-link message matching and the contexts.
type tracer struct {
	mu     sync.Mutex
	nextID uint64
	kept   int
	links  map[[2]ids.ID][]sentMsg
	ctxs   []*traceCtx
}

// sentMsg is a Send waiting for its delivery on one directed link.
type sentMsg struct {
	span, req uint64
	n         int
	sum       uint64
}

func newTracer() *tracer {
	return &tracer{links: make(map[[2]ids.ID][]sentMsg)}
}

// traceCtx is the tracing state of one goroutine that runs protocol code:
// the whole simulation on sim-*, one nettrans host loop on net-*. Its lock
// is only ever contended by the harness reading or resetting the sums.
type traceCtx struct {
	t  *tracer
	mu sync.Mutex

	cur, curReq uint64 // the span now executing, and its root request
	inHandler   bool
	appNs       int64 // app time inside the current handler

	sums  traceSums
	spans []span
}

func (t *tracer) newCtx() *traceCtx {
	c := &traceCtx{t: t}
	t.mu.Lock()
	t.ctxs = append(t.ctxs, c)
	t.mu.Unlock()
	return c
}

func (t *tracer) id() uint64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// keep stores a finished span if the run is still under spanCap.
func (c *traceCtx) keep(s span) {
	c.t.mu.Lock()
	ok := c.t.kept < spanCap
	if ok {
		c.t.kept++
	}
	c.t.mu.Unlock()
	if ok {
		c.spans = append(c.spans, s)
	}
}

// resetSums starts a new counting window (called when warm-up ends).
func (t *tracer) resetSums() {
	for _, c := range t.ctxs {
		c.mu.Lock()
		c.sums = traceSums{}
		c.mu.Unlock()
	}
}

// totals returns the sums of the current counting window over all contexts.
func (t *tracer) totals() *traceSums {
	out := &traceSums{}
	for _, c := range t.ctxs {
		c.mu.Lock()
		out.add(&c.sums)
		c.mu.Unlock()
	}
	return out
}

// rootSpan is the root span of one client request while it is in flight.
// All its methods are no-ops on nil, which is what begin returns untraced.
type rootSpan struct {
	c             *traceCtx
	id, req       uint64
	node, bytes   int
	vstart        sim.Time
	t0            time.Time
	prev, prevReq uint64
}

// begin opens the root span of request req on c's goroutine: until submitted
// is called, Sends made there belong to the request. The harness wraps the
// Invoke call in begin/submitted and calls done from the completion callback.
func (c *traceCtx) begin(req uint64, node, bytes int, vstart sim.Time) *rootSpan {
	if c == nil {
		return nil
	}
	r := &rootSpan{c: c, id: c.t.id(), req: req, node: node, bytes: bytes, vstart: vstart, t0: time.Now(),
		prev: c.cur, prevReq: c.curReq}
	c.cur, c.curReq = r.id, req
	return r
}

func (r *rootSpan) submitted() {
	if r != nil {
		r.c.cur, r.c.curReq = r.prev, r.prevReq
	}
}

func (r *rootSpan) done() {
	if r == nil {
		return
	}
	r.c.mu.Lock()
	r.c.keep(span{ID: r.id, Req: r.req, Kind: spanInvoke, Node: r.node, Peer: -1, Bytes: r.bytes,
		VStartNs: int64(r.vstart), HostNs: time.Since(r.t0).Nanoseconds()})
	r.c.mu.Unlock()
}

// --- fabric wrapper -------------------------------------------------------

// tracedFabric wraps every endpoint it creates; all of them record into ctx.
type tracedFabric struct {
	transport.Fabric
	ctx *traceCtx
}

// NewEndpoint implements transport.Fabric.
func (f *tracedFabric) NewEndpoint(id ids.ID, name string) (transport.Endpoint, error) {
	ep, err := f.Fabric.NewEndpoint(id, name)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{Endpoint: ep, ctx: f.ctx}, nil
}

type tracedEndpoint struct {
	transport.Endpoint
	ctx *traceCtx
}

// channelOf is the router channel tag: the first payload byte.
func channelOf(payload []byte) uint8 {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// Send implements transport.Endpoint.
func (e *tracedEndpoint) Send(to ids.ID, payload []byte) {
	c := e.ctx
	id := c.t.id()
	key := [2]ids.ID{e.ID(), to}
	m := sentMsg{span: id, req: c.curReq, n: len(payload), sum: xcrypto.ChecksumNoCharge(payload)}
	c.t.mu.Lock()
	c.t.links[key] = append(c.t.links[key], m)
	c.t.mu.Unlock()
	vstart := e.Proc().Now()
	t0 := time.Now()
	e.Endpoint.Send(to, payload)
	ns := time.Since(t0).Nanoseconds()

	ch := channelOf(payload)
	c.mu.Lock()
	c.sums.Chan[ch].Sends++
	c.sums.Chan[ch].SendBytes += int64(len(payload))
	c.keep(span{ID: id, Parent: c.cur, Req: c.curReq, Kind: spanSend, Node: int(e.ID()), Peer: int(to),
		Chan: ch, Bytes: len(payload), VStartNs: int64(vstart), HostNs: ns})
	c.mu.Unlock()
}

// claim finds the Send that carried a delivered message: the oldest one on
// the link with this length and checksum. Older entries were lost in the
// fabric (links are FIFO with gaps) and are dropped.
func (t *tracer) claim(from, to ids.ID, payload []byte) (parent, req uint64) {
	key := [2]ids.ID{from, to}
	sum := xcrypto.ChecksumNoCharge(payload)
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.links[key]
	for i, m := range q {
		if m.n == len(payload) && m.sum == sum {
			t.links[key] = q[i+1:]
			return m.span, m.req
		}
	}
	return 0, 0
}

// SetHandler implements transport.Endpoint: h runs inside a handle span.
func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	c := e.ctx
	e.Endpoint.SetHandler(func(from ids.ID, payload []byte) {
		parent, req := c.t.claim(from, e.ID(), payload)
		id := c.t.id()
		prev, prevReq := c.cur, c.curReq
		c.cur, c.curReq, c.inHandler, c.appNs = id, req, true, 0
		vstart := e.Proc().Now()
		t0 := time.Now()
		h(from, payload)
		ns := time.Since(t0).Nanoseconds()
		c.cur, c.curReq, c.inHandler = prev, prevReq, false

		ch := channelOf(payload)
		c.mu.Lock()
		c.sums.Chan[ch].Handles++
		c.sums.Chan[ch].HandlerSelfNs += ns - c.appNs
		c.keep(span{ID: id, Parent: parent, Req: req, Kind: spanHandle, Node: int(e.ID()), Peer: int(from),
			Chan: ch, Bytes: len(payload), VStartNs: int64(vstart), HostNs: ns})
		c.mu.Unlock()
	})
}

// --- application wrappers ---------------------------------------------------

// appSpan records one call into the application.
func (c *traceCtx) appSpan(kind spanKind, t0 time.Time, bytes int) {
	ns := time.Since(t0).Nanoseconds()
	if c.inHandler {
		c.appNs += ns
	}
	c.mu.Lock()
	c.sums.Applies++
	c.sums.ApplyNs += ns
	c.keep(span{ID: c.t.id(), Parent: c.cur, Req: c.curReq, Kind: kind, Node: -1, Peer: -1, Bytes: bytes, HostNs: ns})
	c.mu.Unlock()
}

// The wrappers embed the concrete application, so every capability the
// deployment layers assert (Router, Fragmenter, TxnParticipant, Deferring,
// ReadExecutor, Versioned, ...) still holds through the promoted methods.

type tracedFlip struct {
	*app.Flip
	ctx *traceCtx
}

func (a tracedFlip) Apply(req []byte) []byte {
	defer a.ctx.appSpan(spanApply, time.Now(), len(req))
	return a.Flip.Apply(req)
}

type tracedKV struct {
	*app.KV
	ctx *traceCtx
}

func (a tracedKV) Apply(req []byte) []byte {
	defer a.ctx.appSpan(spanApply, time.Now(), len(req))
	return a.KV.Apply(req)
}

func (a tracedKV) ApplyRead(req []byte) ([]byte, bool) {
	defer a.ctx.appSpan(spanApplyRead, time.Now(), len(req))
	return a.KV.ApplyRead(req)
}

func (a tracedKV) ApplyReadAt(req []byte, at uint64) ([]byte, bool, bool) {
	defer a.ctx.appSpan(spanApplyRead, time.Now(), len(req))
	return a.KV.ApplyReadAt(req, at)
}

type tracedRKV struct {
	*app.RKV
	ctx *traceCtx
}

func (a tracedRKV) Apply(req []byte) []byte {
	defer a.ctx.appSpan(spanApply, time.Now(), len(req))
	return a.RKV.Apply(req)
}

func (a tracedRKV) ApplyRead(req []byte) ([]byte, bool) {
	defer a.ctx.appSpan(spanApplyRead, time.Now(), len(req))
	return a.RKV.ApplyRead(req)
}

func (a tracedRKV) ApplyReadAt(req []byte, at uint64) ([]byte, bool, bool) {
	defer a.ctx.appSpan(spanApplyRead, time.Now(), len(req))
	return a.RKV.ApplyReadAt(req, at)
}

// --- output -----------------------------------------------------------------

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	SpansTotal uint64 `json:"spans_total"`
	SpansKept  int    `json:"spans_kept"`
	Spans      []span `json:"spans"`
}

// write stores the kept spans under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, SpansTotal: t.nextID}
	for _, c := range t.ctxs {
		tf.Spans = append(tf.Spans, c.spans...)
	}
	tf.SpansKept = len(tf.Spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// transportMetrics turns the window's fabric sums into the transport.* and
// app.* per-op metrics. cpuNs is the CPU time of the same window.
func transportMetrics(m metrics, s *traceSums, ops int, cpuNs float64) {
	n := float64(ops)
	var msgs, bytes int64
	for _, cs := range s.Chan {
		msgs += cs.Sends
		bytes += cs.SendBytes
	}
	m.set("transport.msgs_per_op", ratio(float64(msgs), n), ops)
	m.set("transport.bytes_per_op", ratio(float64(bytes), n), ops)
	sends := func(chs ...uint8) (c int64) {
		for _, ch := range chs {
			c += s.Chan[ch].Sends
		}
		return c
	}
	self := func(chs ...uint8) (ns int64) {
		for _, ch := range chs {
			ns += s.Chan[ch].HandlerSelfNs
		}
		return ns
	}
	mem := []uint8{router.ChanMemReq, router.ChanMemResp}
	m.set("transport.rpc_msgs_per_op", ratio(float64(sends(router.ChanRPC)), n), ops)
	m.set("transport.ring_msgs_per_op", ratio(float64(sends(router.ChanRing)), n), ops)
	m.set("transport.ringack_msgs_per_op", ratio(float64(sends(router.ChanRingAck)), n), ops)
	m.set("transport.mem_msgs_per_op", ratio(float64(sends(mem...)), n), ops)
	m.set("transport.summary_msgs_per_op", ratio(float64(sends(router.ChanSummary)), n), ops)
	m.set("transport.direct_msgs_per_op", ratio(float64(sends(router.ChanDirect)), n), ops)
	m.set("transport.handler_ns_rpc", ratio(float64(self(router.ChanRPC)), n), ops)
	m.set("transport.handler_ns_ring", ratio(float64(self(router.ChanRing)), n), ops)
	m.set("transport.handler_ns_ringack", ratio(float64(self(router.ChanRingAck)), n), ops)
	m.set("transport.handler_ns_mem", ratio(float64(self(mem...)), n), ops)
	m.set("transport.handler_ns_summary", ratio(float64(self(router.ChanSummary)), n), ops)
	m.set("app.apply_ns_per_op", ratio(float64(s.ApplyNs), n), int(s.Applies))
	m.set("app.apply_share", ratio(float64(s.ApplyNs), cpuNs), int(s.Applies))
}
