package outcome

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// recorder is a T that keeps what a comparator logged and reported.
type recorder struct {
	logs, errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Logf(format string, args ...any) {
	r.logs = append(r.logs, fmt.Sprintf(format, args...))
}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

const sample = `# a header line
# another

[consensus]
rejoin  1  pass
rejoin  2  wedged   post-GST op 0 failed
soak   22  diverged agreement oracle: slot 22
soak   23  pass

[byz]
honest/kv/fast 1  pass
honest/kv/fast 2  pass
`

// run writes text to a fresh file, runs the comparator on it and returns the
// file's contents afterwards.
func run(t *testing.T, text, section string, got []Line, ratchet bool) (*recorder, string) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "outcomes.txt")
	if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &recorder{}
	update(r, file, section, got, ratchet)
	after, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return r, string(after)
}

func line(scenario string, seed int64, k Kind, note string) Line {
	return Line{scenario, seed, Verdict{k, note}}
}

// TestWorseLineFails: a verdict worse than the committed one fails, naming the
// scenario, the seed and both verdicts, and the file stays byte-identical even
// though another line of the same run improved.
func TestWorseLineFails(t *testing.T) {
	r, after := run(t, sample, "consensus", []Line{
		line("rejoin", 2, Pass, ""),
		line("soak", 23, Diverged, "agreement oracle: slot 9"),
	}, true)
	if after != sample {
		t.Errorf("a failing comparison changed the file:\n%s", after)
	}
	all := strings.Join(r.errs, "\n")
	if len(r.errs) == 0 || !strings.Contains(all, `soak seed 23: committed "pass", now "diverged: agreement oracle: slot 9"`) {
		t.Errorf("errors do not name soak 23 with both verdicts:\n%s", all)
	}
	if strings.Contains(all, "rejoin") {
		t.Errorf("an improvement was reported as a failure:\n%s", all)
	}
}

// TestImprovementRewritesItsSection: a better verdict and a changed note are
// written, and logged; every other line and section stays as it was.
func TestImprovementRewritesItsSection(t *testing.T) {
	r, after := run(t, sample, "consensus", []Line{
		line("rejoin", 1, Pass, ""),
		line("rejoin", 2, Pass, ""),
		line("soak", 22, Diverged, "agreement oracle:   slot 23\n"),
	}, true)
	if len(r.errs) != 0 {
		t.Fatalf("an improvement failed: %v", r.errs)
	}
	want := strings.Replace(strings.Replace(sample,
		"rejoin  2  wedged   post-GST op 0 failed", "rejoin  2  pass", 1),
		"agreement oracle: slot 22", "agreement oracle: slot 23", 1)
	if after != want {
		t.Errorf("rewritten file:\n%s\nwant:\n%s", after, want)
	}
	if logs := strings.Join(r.logs, "\n"); !strings.Contains(logs, "rejoin seed 2") || !strings.Contains(logs, "soak seed 22") {
		t.Errorf("changes not logged:\n%s", logs)
	}
}

// TestShortRunIgnoresLinesItDidNotRun: a run that names a subset of the
// section's lines compares only those, and a new (scenario, seed) is added.
func TestShortRunIgnoresLinesItDidNotRun(t *testing.T) {
	r, after := run(t, sample, "consensus", []Line{line("rejoin", 1, Pass, "")}, true)
	if len(r.errs) != 0 || after != sample {
		t.Fatalf("errors %v, file:\n%s", r.errs, after)
	}
	r, after = run(t, sample, "byz", []Line{line("honest/kv/fast", 3, Unquiet, "")}, true)
	if len(r.errs) != 0 || !strings.HasSuffix(after, "honest/kv/fast 2  pass\nhonest/kv/fast 3  unquiet\n") {
		t.Fatalf("errors %v, file:\n%s", r.errs, after)
	}
}

// TestMalformedLedgerRejected: a malformed line, an unknown verdict, a
// duplicate (scenario, seed) or section, in the file or in a run, fails the
// comparison and leaves the file as it was.
func TestMalformedLedgerRejected(t *testing.T) {
	for _, tc := range []struct{ name, text, want string }{
		{"too few fields", "[a]\nrejoin 1\n", "want scenario, seed, verdict"},
		{"seed not a number", "[a]\nrejoin one pass\n", "is not a number"},
		{"unknown verdict", "[a]\nrejoin 1 flaky\n", `unknown verdict "flaky"`},
		{"duplicate line", "[a]\nrejoin 1 pass\nrejoin 1 wedged x\n", "appears twice"},
		{"duplicate section", "[a]\n[b]\n[a]\n", "appears twice"},
		{"line outside a section", "rejoin 1 pass\n", "neither a comment nor in a section"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, after := run(t, tc.text, "a", []Line{line("rejoin", 1, Pass, "")}, true)
			if after != tc.text || len(r.errs) == 0 || !strings.Contains(r.errs[0], tc.want) {
				t.Errorf("errors %q, want %q; file:\n%s", r.errs, tc.want, after)
			}
		})
	}
	for _, tc := range []struct {
		name string
		got  []Line
		want string
	}{
		{"measured twice", []Line{line("soak", 23, Pass, ""), line("soak", 23, Pass, "")}, "measured twice"},
		{"unknown kind", []Line{line("soak", 23, Diverged+1, "")}, "unknown verdict"},
		{"scenario with a space", []Line{line("so ak", 23, Pass, "")}, "not one word"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, after := run(t, sample, "consensus", tc.got, true)
			if after != sample || len(r.errs) == 0 || !strings.Contains(r.errs[0], tc.want) {
				t.Errorf("errors %q, want %q; file:\n%s", r.errs, tc.want, after)
			}
		})
	}
}

// TestRecordNeverFails: the wall-clock line is printed beside the committed
// one and written, worse or better, without failing.
func TestRecordNeverFails(t *testing.T) {
	const fleet = "# h\n\n[fleet]\nfollower-crash 50  pass     0 wedged, 0 launch failures of 50\n"
	got := line("follower-crash", 50, Wedged, "3 wedged, 1 launch failures of 50")
	r, after := run(t, fleet, "fleet", []Line{got}, false)
	if len(r.errs) != 0 {
		t.Fatalf("Record failed: %v", r.errs)
	}
	if want := "# h\n\n[fleet]\nfollower-crash 50  wedged   3 wedged, 1 launch failures of 50\n"; after != want {
		t.Errorf("file:\n%s\nwant:\n%s", after, want)
	}
	if logs := strings.Join(r.logs, "\n"); !strings.Contains(logs, `measured "wedged: 3 wedged, 1 launch failures of 50", committed "pass: 0 wedged, 0 launch failures of 50"`) {
		t.Errorf("the measured line is not logged beside the committed one:\n%s", logs)
	}
}

// TestJudge: the oracle's conflict first, then the final-state check, then
// the body's verdict.
func TestJudge(t *testing.T) {
	agree := checker(func() error { return nil })
	disagree := checker(func() error { return errors.New("states differ") })
	conflict := func() Verdict { panic(&cluster.Divergence{Group: 3}) }
	wedged := func() Verdict { return Wedged.Because("op %d", 7) }
	for _, tc := range []struct {
		c    checker
		body func() Verdict
		want Verdict
	}{
		{disagree, conflict, Verdict{Diverged, (&cluster.Divergence{Group: 3}).Error()}},
		{disagree, wedged, Verdict{Diverged, "states differ"}},
		{agree, wedged, Verdict{Wedged, "op 7"}},
		{agree, func() Verdict { return Verdict{} }, Verdict{}},
	} {
		if got := Judge(tc.c, tc.body); got != tc.want {
			t.Errorf("Judge = %v, want %v", got, tc.want)
		}
	}
}

type checker func() error

func (c checker) CheckAgreement() error { return c() }

// TestSweepRunsEachSeedOnceInOrder: however the seeds are spread over
// goroutines, each runs once and the lines come back in seed order.
func TestSweepRunsEachSeedOnceInOrder(t *testing.T) {
	var runs [101]atomic.Int32
	lines := Sweep("s", 100, func(seed int64) Verdict {
		runs[seed].Add(1)
		return Wedged.Because("%d", seed)
	})
	for i, l := range lines {
		if want := line("s", int64(i+1), Wedged, fmt.Sprint(i+1)); l != want || runs[i+1].Load() != 1 {
			t.Fatalf("line %d = %+v after %d runs, want %+v once", i, l, runs[i+1].Load(), want)
		}
	}
}

// TestCommittedLedgerIsCanonical: the committed file parses, and rendering it
// gives it back byte for byte, so a run that changes nothing writes nothing.
func TestCommittedLedgerIsCanonical(t *testing.T) {
	path, err := resolve(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := parse(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != string(raw) {
		t.Errorf("%s is not in the form the comparator writes; rendered:\n%s", ledgerFile, got)
	}
	for _, want := range []string{"consensus", "byz", "chaos", "crossshard", "fleet"} {
		if s := l.section(want); len(s.lines) == 0 {
			t.Errorf("%s has no [%s] lines", ledgerFile, want)
		}
	}
	if k := strings.Join(kindNames[:], " < "); !strings.Contains(string(raw), k) {
		t.Errorf("the header does not state the verdict order %q", k)
	}
}
