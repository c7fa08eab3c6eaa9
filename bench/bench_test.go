package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/app"
)

// benchmarkJSON mirrors the BENCHMARK.json contract at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestNamesMatchBenchmarkJSON pins the printed workload and metric names to
// BENCHMARK.json: a later PR is judged on these names, so neither file may
// drift from the other, and every name must fit the driver's grammar.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	var want []workloadSpec // the diagnostic net-* workloads are not the driver's
	for _, w := range workloads {
		if !w.Net {
			want = append(want, w)
		}
	}
	if len(b.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d that are not diagnostics", len(b.Workloads), len(want))
	}
	for i, w := range want {
		name(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their reasons differ)", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		name(m.Name)
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit %q or bound %g", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
	for _, m := range append(append([]metricSpec{}, perLayer...), perLayerNet...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %s: bad unit %q or no <layer>. prefix", m.Name, m.Unit)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestSelfContained fails if the harness leans on the code it is meant to
// judge: bench/ must not import repro/internal/bench nor call
// wallclock.RunBench, so later PRs can change those without moving the
// yardstick.
func TestSelfContained(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/bench" {
					t.Errorf("%s imports %s", path, p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "wallclock" && sel.Sel.Name == "RunBench" {
						t.Errorf("%s uses wallclock.RunBench", fset.Position(sel.Pos()))
					}
				}
				return true
			})
		}
	}
}

// TestSimWorkloads runs every sim workload at 1/20 size, traced: twice
// with one seed, which must give bit-identical virtual-time metrics and
// transport counts, and once with another seed, which must also pass its
// answer checks. Only names of the vocabulary may be reported, and a metric
// of a layer the workload does not exercise must be absent, not 0.
func TestSimWorkloads(t *testing.T) {
	counts := []string{
		"transport.msgs_per_op", "transport.bytes_per_op", "transport.rpc_msgs_per_op",
		"transport.ring_msgs_per_op", "transport.ringack_msgs_per_op", "transport.mem_msgs_per_op",
		"transport.summary_msgs_per_op", "transport.direct_msgs_per_op", "sim.events_per_op",
	}
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	for name, def := range simDefs(20) {
		a, b, c := runSimRep(def, 1, true), runSimRep(def, 1, true), runSimRep(def, 2, true)
		for _, rep := range []*simRep{a, b, c} {
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s: %d of %d operations failed", name, rep.failed, rep.attempted)
			}
		}
		for _, k := range virtualKeys {
			if a.e2e[k] != b.e2e[k] || a.e2e[k].V == 0 {
				t.Errorf("%s: %s = %v then %v with one seed", name, k, a.e2e[k].V, b.e2e[k].V)
			}
		}
		for _, k := range counts {
			if a.layer[k] != b.layer[k] {
				t.Errorf("%s: %s = %v then %v with one seed", name, k, a.layer[k].V, b.layer[k].V)
			}
		}
		if a.layer["transport.msgs_per_op"].V == 0 || a.layer["app.apply_ns_per_op"].V == 0 {
			t.Errorf("%s: the fabric or application wrapper recorded nothing", name)
		}
		for _, m := range endToEnd {
			if _, ok := a.e2e[m.Name]; !ok && m.Name != "setup_s" {
				t.Errorf("%s: end-to-end metric %s not reported", name, m.Name)
			}
		}
		if len(a.setups) != simSetups {
			t.Errorf("%s: %d set-up samples, want %d", name, len(a.setups), simSetups)
		}
		for k := range a.layer {
			if !known[k] {
				t.Errorf("%s: reports %s, which spec.go does not list", name, k)
			}
		}
		_, sharded := a.layer["shard.cross_share"]
		if want := name == "sim-kv-read90" || name == "sim-shard4-txn"; sharded != want {
			t.Errorf("%s: shard.cross_share reported = %v, want %v", name, sharded, want)
		}
	}
}

// TestResultLine checks the two faces of a run's output: the ledger holds
// only what was measured, the driver's result line every name of the list,
// with the invocation's rig metrics repeated on it.
func TestResultLine(t *testing.T) {
	w, _ := findWorkload("sim-flip-fast")
	r := &result{workload: w.Name, traced: true, attempted: 1, metrics: metrics{"transport.msgs_per_op": {V: 9, N: 1}}}
	rigs := metrics{"ctbcast.fast_us": {V: 3, N: 1}}

	set := newResultSet(1, 10)
	set.add(w, r)
	if got := set.Workloads[w.Name].PerLayer; len(got) != 1 || got["transport.msgs_per_op"].Value != 9 {
		t.Errorf("ledger row holds %v, want only the measured metric", got)
	}

	stdout := os.Stdout
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wr
	err = r.print(w, rigs)
	os.Stdout = stdout
	wr.Close()
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := text.ReadFrom(rd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	if strings.Contains(strings.Join(lines[:len(lines)-1], "\n"), "shard.") {
		t.Errorf("a metric that does not apply was printed:\n%s", text.String())
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("result line has %d metrics, want all %d", len(line.Metrics), len(perLayer))
	}
	if line.Metrics["transport.msgs_per_op"].Value != 9 || line.Metrics["ctbcast.fast_us"].Value != 3 {
		t.Errorf("result line lost a value: %v", line.Metrics)
	}
}

// TestAnswerChecksTrip proves the checks are load-bearing: a wrong answer
// must be counted as a failure by each generator.
func TestAnswerChecksTrip(t *testing.T) {
	flip := newFlipGen(64, rand.New(rand.NewSource(1)))
	o := flip.next(0)
	if flip.check(o, o.req) {
		t.Error("flip: an unreversed response passed")
	}

	kv := newKVGen(rand.New(rand.NewSource(1)), 1, 8, 16, 32, 0, false)
	first := kv.next(0)
	if !kv.check(first, []byte{app.KVStored}) {
		t.Error("kv: a stored SET failed")
	}
	second := kv.next(0)
	for second.key != first.key {
		kv.check(second, []byte{app.KVStored})
		second = kv.next(0)
	}
	kv.check(second, []byte{app.KVStored})
	ref := app.NewKV(0)
	ref.Apply(first.req)
	stale := ref.Apply(app.EncodeKVGet(kv.keys[first.key]))
	get := kv.get(0, first.key)
	if kv.check(get, stale) {
		t.Error("kv: a GET returning an overwritten version passed")
	}
	if kv.check(get, []byte{app.KVMiss}) {
		t.Error("kv: a miss on a written key passed")
	}
	ref.Apply(second.req)
	if !kv.check(get, ref.Apply(get.req)) {
		t.Error("kv: a GET returning the last acknowledged write failed")
	}

	rkv := newRKVTxnGen(1, 4, 1)
	if x := rkv.next(0); rkv.check(x, []byte{app.StatusLocked}) || rkv.check(x, nil) {
		t.Error("rkv: a refused cross-shard operation passed")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := percentile(xs, 50); got < 495 || got > 506 {
		t.Errorf("p50 of 1..1000 = %v", got)
	}
	if got := percentile(xs, 99); got < 985 || got > 996 {
		t.Errorf("p99 of 1..1000 = %v", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must give 0")
	}
}

// TestCompareAndAgree checks the ledger judgement: a change past its bound is
// a regression, one inside it is not; a sim virtual-time metric is held to 1%
// between two sets of one seed and must not move at all for them to agree;
// milliseconds of set-up may swing with the host; and the wall clock of a
// net-* workload is never judged.
func TestCompareAndAgree(t *testing.T) {
	mk := func(seed int64, simP50, simAllocs, simSetup, netKops float64) *resultSet {
		s := newResultSet(seed, 10)
		sim, _ := findWorkload("sim-flip-fast")
		net, _ := findWorkload("net-kv-d1")
		s.add(sim, &result{workload: sim.Name, attempted: 10, metrics: metrics{
			"latency_p50_us": {V: simP50, N: 10}, "allocs_per_op": {V: simAllocs, N: 10}, "setup_s": {V: simSetup, N: 10}}})
		s.add(net, &result{workload: net.Name, attempted: 10, metrics: metrics{"throughput_kops": {V: netKops, N: 10}}})
		return s
	}
	base := mk(1, 10, 100, 0.004, 1)
	for _, c := range []struct {
		what string
		cur  *resultSet
		ok   bool
	}{
		{"changes inside the bounds", mk(1, 10.05, 103, 0.004, 1), true},
		{"a 2% virtual-time loss with one seed", mk(1, 10.2, 100, 0.004, 1), false},
		{"a 2% virtual-time difference between two seeds", mk(2, 10.2, 100, 0.004, 1), true},
		{"a 6% virtual-time loss between two seeds", mk(2, 10.6, 100, 0.004, 1), false},
		{"an 8% rise in allocations", mk(1, 10, 108, 0.004, 1), false},
		{"4 ms of set-up reading 9 ms", mk(1, 10, 100, 0.009, 1), true},
		{"4 ms of set-up reading 300 ms", mk(1, 10, 100, 0.3, 1), false},
		{"a 40% wall-clock loss on net-kv-d1", mk(1, 10, 100, 0.004, 0.6), true},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, base, c.cur); got != c.ok {
			t.Errorf("%s: compare ok = %v, want %v\n%s", c.what, got, c.ok, out.String())
		} else if !c.ok && !strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("%s: no REGRESSION line\n%s", c.what, out.String())
		}
	}

	dir := t.TempDir()
	write := func(name string, s *resultSet) string {
		path := filepath.Join(dir, name)
		if err := s.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	a := write("a.json", base)
	if agreeFiles(&out, a, write("b.json", mk(1, 10, 101, 0.009, 0.6))) != 0 {
		t.Errorf("sets within the bounds do not agree:\n%s", out.String())
	}
	if agreeFiles(&out, a, write("c.json", mk(1, 10.001, 100, 0.004, 1))) == 0 {
		t.Error("a virtual-time metric that moved on sim-flip-fast still agrees")
	}
	if agreeFiles(&out, a, write("d.json", mk(1, 10, 108, 0.004, 1))) == 0 {
		t.Error("allocations 8% apart still agree")
	}
}
