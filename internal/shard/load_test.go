package shard_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/shard"
	"repro/internal/sim"
)

// load is what one closed-loop run measured.
type load struct {
	elapsed sim.Duration
	// lats holds the latencies by request class, the application's own
	// Fragmenter.ReadOnly: lats[read] and lats[write].
	lats                    map[bool][]sim.Duration
	cross, aborted, decided int
	fast, strong, fallbacks uint64 // summed over the clients' read counters
}

const read, write = true, false

func (l load) ops() int { return len(l.lats[read]) + len(l.lats[write]) }

func (l load) opsPerNs() float64 { return float64(l.ops()) / float64(l.elapsed) }

func (l load) p50(class bool) sim.Duration {
	s := slices.Clone(l.lats[class])
	slices.Sort(s)
	return s[len(s)/2]
}

// drive keeps depth requests in flight per client, client ci issuing
// next(ci, 0), next(ci, 1), ... through the routed Invoke path, until every
// client has completed n; a request that never completes fails the test.
func drive(t *testing.T, d *shard.Deployment, readOnly func([]byte) bool, depth, n int, next func(ci, i int) []byte) load {
	res := load{lats: map[bool][]sim.Duration{}}
	start, total := d.Eng.Now(), n*len(d.Clients)
	for ci := range d.Clients {
		issued := 0
		var issue func()
		issue = func() {
			if issued == n {
				return
			}
			req := next(ci, issued)
			issued++
			s, err := d.Client(ci).Invoke(req, func(result []byte, lat sim.Duration) {
				if len(result) == 1 && result[0] == app.StatusAborted {
					res.aborted++
				}
				res.lats[readOnly(req)] = append(res.lats[readOnly(req)], lat)
				issue()
			})
			if err != nil {
				t.Fatalf("client %d request %d: %v", ci, issued-1, err)
			}
			if s == shard.MultiShard {
				res.cross++
			}
		}
		for k := 0; k < depth; k++ {
			issue()
		}
	}
	for res.ops() < total {
		if !d.Eng.Step() || d.Eng.Now().Sub(start) > sim.Duration(total)*5*sim.Millisecond {
			t.Fatalf("%d of %d requests completed", res.ops(), total)
		}
	}
	res.elapsed = d.Eng.Now().Sub(start)
	return res
}

// mix is one deployment (a client per shard, 4 requests in flight each) and
// the request stream that loads it.
type mix struct {
	app          func(int) app.StateMachine
	shards, n    int
	fast, strong bool
	next         func(ci, i int) []byte
}

func (m mix) run(t *testing.T) load {
	t.Helper()
	d := shard.New(shard.Options{Seed: 1, Shards: m.shards, NumClients: m.shards, NewApp: m.app,
		FastReads: m.fast, StrongReads: m.strong})
	defer d.Stop()
	res := drive(t, d, m.app(0).(app.Fragmenter).ReadOnly, 4, m.n, m.next)
	res.decided = d.DecidedTotal()
	for _, c := range d.Clients {
		fast, fallbacks := c.ReadStats()
		res.fast += fast
		res.fallbacks += fallbacks
		res.strong += c.StrongReadStats()
	}
	return res
}

// shape is one row of TestLoadShapes: got's run checked against base's.
type shape struct {
	name      string
	base, got mix  // base is run first, when it has a stream
	twice     bool // got is run again and must reproduce every latency and counter
	check     func(t *testing.T, base, got load)
}

// TestLoadShapes holds the shapes a loaded deployment must show, each as a
// ratio within one seeded pair of runs (absolute throughput is the
// repository benchmark's to gate: sim-shard4-txn, sim-kv-read90).
func TestLoadShapes(t *testing.T) {
	kv := func(int) app.StateMachine { return app.NewKV(0) }
	ob := func(int) app.StateMachine { return app.NewOrderBook() }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 32) }

	// sets is an all-SET stream, client ci on its own shard's keys.
	sets := func(shards int) func(ci, i int) []byte {
		return func(ci, i int) []byte { return app.EncodeKVSet(keyOnShard(t, ci, shards, i), val(i)) }
	}
	// read90 writes the shard's next key (or symbol) on every tenth request
	// and reads keys already written on the other nine.
	read90 := func(put func(k []byte, i int) []byte, get func(i int, k1, k2 []byte) []byte) func(ci, i int) []byte {
		return func(ci, i int) []byte {
			w := i / 10
			if i%10 == 0 {
				return put(keyOnShard(t, ci, 2, w), i)
			}
			return get(i, keyOnShard(t, ci, 2, i*7%(w+1)), keyOnShard(t, ci, 2, i*3%(w+1)))
		}
	}
	kvSet := func(k []byte, i int) []byte { return app.EncodeKVSet(k, val(i)) }
	point := read90(kvSet, func(_ int, k, _ []byte) []byte { return app.EncodeKVGet(k) })
	multi := read90(kvSet, func(i int, k1, k2 []byte) []byte {
		if i%2 == 0 {
			return app.EncodeKVMGet(k1)
		}
		return app.EncodeKVMGet(k1, k2)
	})
	tops := read90(
		func(sym []byte, i int) []byte {
			return app.EncodeOrderSym(sym, app.OpBuy+uint8(i/10%2), 95+uint64(i*7%10), 1+uint64(i%9))
		},
		func(_ int, sym, _ []byte) []byte { return app.EncodeTops(sym) })
	// cross50 alternates a shard-local write with a two-shard request, a
	// scatter read and a 2PC write in turn, on keys no other request uses.
	cross50 := func(sa shardApp, n int) func(ci, i int) []byte {
		return func(ci, i int) []byte {
			a := keyOnShard(t, ci, 3, i)
			b := keyOnShard(t, (ci+1+i%2)%3, 3, n*(ci+1)+i)
			switch i % 4 {
			case 1:
				return sa.read(a, b)
			case 3:
				return sa.write(a, b, "new")
			}
			return sa.seed(a, "old")
		}
	}

	rows := []shape{
		{name: "scaling-4-shards",
			base: mix{app: kv, shards: 1, n: 120, next: sets(1)},
			got:  mix{app: kv, shards: 4, n: 120, next: sets(4)},
			check: func(t *testing.T, one, four load) {
				if x := four.opsPerNs() / one.opsPerNs(); x < 3 {
					t.Errorf("S=4 is %.2fx S=1, want >= 3x", x)
				}
				// A slot carries at most the pipeline depth, so the groups
				// together must have decided at least ops/depth slots.
				if four.decided < 4*120/4 {
					t.Errorf("S=4 decided %d slots, want >= %d", four.decided, 4*120/4)
				}
			}},
		{name: "orderbook-read90-fast", twice: true,
			base: mix{app: ob, shards: 2, n: 150, next: tops},
			got:  mix{app: ob, shards: 2, n: 150, next: tops, fast: true},
			check: func(t *testing.T, ordered, fast load) {
				if x := fast.opsPerNs() / ordered.opsPerNs(); x < 1.9 || fast.fast == 0 {
					t.Errorf("fast reads %.2fx the ordered run (%d fast accepts), want >= 1.9x", x, fast.fast)
				}
				if r := fast.p50(read); r >= fast.p50(write) || r >= ordered.p50(write) {
					t.Errorf("fast-read p50 %v not below the write p50s %v (fast run) and %v (ordered run)",
						r, fast.p50(write), ordered.p50(write))
				}
			}},
		{name: "kv-point90-fast-vs-ordered",
			base: mix{app: kv, shards: 2, n: 150, next: point},
			got:  mix{app: kv, shards: 2, n: 150, next: point, fast: true},
			check: func(t *testing.T, ordered, fast load) {
				if fast.fast == 0 || fast.fallbacks != 0 {
					t.Errorf("point reads off the fast path: %d accepts, %d fallbacks", fast.fast, fast.fallbacks)
				}
				if r, o := fast.p50(read), ordered.p50(read); r >= o {
					t.Errorf("fast point-read p50 %v not below the ordered point read's %v", r, o)
				}
			}},
		{name: "kv-point90-fast-vs-multi",
			base: mix{app: kv, shards: 2, n: 150, next: multi, fast: true},
			got:  mix{app: kv, shards: 2, n: 150, next: point, fast: true},
			check: func(t *testing.T, multi, point load) {
				// The streams differ, so allow queueing noise: 5%.
				if r, m := point.p50(read), multi.p50(read); float64(r) > 1.05*float64(m) {
					t.Errorf("point-read p50 %v above the multi-read fast path's %v", r, m)
				}
			}},
		// A strong read is one round trip to the whole group and 2f+1
		// executions on the replicas' read cores; the ordered read it stands
		// in for pays an echo round, a consensus slot, its dispatch on the
		// main core and its execution on the read core (the twin runs without
		// fast reads, so its read cores are idle). So it is the faster of the
		// two: 23.1 against 56.8 µs p50 (against 71.4 µs while the ordered
		// read executed on the main core; 45.8 against 71.4 µs while strong
		// reads ran on the main core and starved the writes, 195.6 µs p50;
		// now 25.2 µs).
		{name: "kv-point90-strong", twice: true,
			base: mix{app: kv, shards: 2, n: 150, next: point},
			got:  mix{app: kv, shards: 2, n: 150, next: point, strong: true},
			check: func(t *testing.T, ordered, strong load) {
				if strong.strong == 0 || strong.fallbacks != 0 {
					t.Errorf("strong reads off the 2f+1 quorum: %d accepts, %d fallbacks", strong.strong, strong.fallbacks)
				}
				if r, o := strong.p50(read), ordered.p50(read); r >= o {
					t.Errorf("strong-read p50 %v not below the ordered point read's %v", r, o)
				}
			}},
	}
	for _, sa := range shardApps() {
		rows = append(rows, shape{name: "cross50-" + sa.name, twice: true,
			got: mix{app: sa.newApp, shards: 3, n: 40, next: cross50(sa, 40)},
			check: func(t *testing.T, _, got load) {
				if got.cross == 0 || got.aborted > got.cross/2 {
					t.Errorf("%d cross-shard requests, %d aborted: want some, and uncontended keys mostly committing",
						got.cross, got.aborted)
				}
			}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var base load
			if r.base.next != nil {
				base = r.base.run(t)
			}
			got := r.got.run(t)
			r.check(t, base, got)
			if r.twice && !reflect.DeepEqual(got, r.got.run(t)) {
				t.Error("the same seed did not reproduce the run")
			}
		})
	}
}
