// Package outcome is the one record of how the repository's seeded runs
// end: a verdict per (scenario, seed), ordered pass < unquiet < wedged <
// violated < diverged, and the committed file docs/ledger/outcomes.txt that
// holds one line per run. Check compares a run's verdicts with their section
// of the file and fails, naming both verdicts, on any that got worse;
// otherwise it rewrites the section, so a change's effect on outcomes is the
// diff of that file. The file format is private to this package.
//
// It is test infrastructure, outside the system proper and outside the
// determinism set: it reads and writes the file system.
package outcome

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// Kind is how a run ended, from best to worst.
type Kind int

const (
	// Pass: every expectation held.
	Pass Kind = iota
	// Unquiet: every expectation held, but the deployment did not go quiet
	// after the run (cluster.Assembly.Quiescent).
	Unquiet
	// Wedged: a liveness expectation failed; an operation never completed
	// or a replica never finished recovering.
	Wedged
	// Violated: an invariant a client can see failed, such as
	// read-your-writes, an untorn cross-shard read or a committed write.
	Violated
	// Diverged: correct replicas disagree, at the agreement oracle's first
	// conflict or in their final states at equal progress.
	Diverged
)

var kindNames = [...]string{"pass", "unquiet", "wedged", "violated", "diverged"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
	return kindNames[k]
}

func parseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Because returns a verdict of kind k with a note.
func (k Kind) Because(format string, args ...any) Verdict {
	return Verdict{k, fmt.Sprintf(format, args...)}
}

// Verdict is how one run ended: its kind and a one-line note. The zero
// Verdict is a pass.
type Verdict struct {
	Kind Kind
	Note string
}

func (v Verdict) String() string {
	if v.Note == "" {
		return v.Kind.String()
	}
	return v.Kind.String() + ": " + v.Note
}

// Judge runs body on a deployment and returns the run's verdict: diverged at
// the agreement oracle's first conflict inside body (cluster.Diverged), or
// when the deployment's final states disagree at equal progress
// (CheckAgreement); otherwise body's own verdict. The deployment must not
// run again after a divergence.
func Judge(d interface{ CheckAgreement() error }, body func() Verdict) Verdict {
	var v Verdict
	if div := cluster.Diverged(func() { v = body() }); div != nil {
		return Verdict{Diverged, div.Error()}
	}
	if err := d.CheckAgreement(); err != nil {
		return Verdict{Diverged, err.Error()}
	}
	return v
}

// Line is one run of a section: its scenario, seed and verdict.
type Line struct {
	Scenario string
	Seed     int64
	Verdict
}

// Sweep runs one scenario at seeds 1 to n on as many goroutines as
// GOMAXPROCS and returns its lines in seed order. Each run must share
// nothing with the others (a deterministic deployment of its own), so the
// lines are the ones a run seed after seed would give.
func Sweep(scenario string, n int64, run func(seed int64) Verdict) []Line {
	lines := make([]Line, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := next.Add(1); seed <= n; seed = next.Add(1) {
				lines[seed-1] = Line{scenario, seed, run(seed)}
			}
		}()
	}
	wg.Wait()
	return lines
}

// Tally counts lines by verdict, best first: "110 pass, 4 wedged, 6
// diverged".
func Tally(lines []Line) string {
	var n [len(kindNames)]int
	for _, l := range lines {
		n[l.Kind]++
	}
	var parts []string
	for k, c := range n {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%d %v", c, Kind(k)))
		}
	}
	return strings.Join(parts, ", ")
}

// T is the part of testing.TB that Check and Record use.
type T interface {
	Helper()
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
}

// Check compares got with the named section of docs/ledger/outcomes.txt.
// If any line got worse it fails, naming each (scenario, seed) with both
// verdicts, and leaves the file untouched. Otherwise it logs and writes
// every change: a better verdict, a changed note, a line the file did not
// hold. Lines of the section that got does not name (a -short run's) stay
// as they are.
func Check(t T, section string, got []Line) {
	t.Helper()
	update(t, ledgerFile, section, got, true)
}

// Record is Check for runs that are not deterministic (wall clock): it logs
// each line beside the committed one and writes any change, worse included,
// and never fails on a verdict.
func Record(t T, section string, got []Line) {
	t.Helper()
	update(t, ledgerFile, section, got, false)
}

// ledgerFile is the ledger's path from the module root.
const ledgerFile = "docs/ledger/outcomes.txt"

// update is Check (ratchet) and Record (not) on file, which a relative path
// resolves from the module root.
func update(t T, file, section string, got []Line, ratchet bool) {
	t.Helper()
	path, err := resolve(file)
	if err != nil {
		t.Errorf("outcome: %v", err)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("outcome: %v", err)
		return
	}
	l, err := parse(string(raw))
	if err != nil {
		t.Errorf("outcome: %s: %v", file, err)
		return
	}
	sec := l.section(section)
	at := map[key]int{}
	for i, ln := range sec.lines {
		at[ln.key()] = i
	}
	seen := map[key]bool{}
	var worse, changed []string
	for _, g := range got {
		g.Note = oneLine(g.Note)
		if err := g.valid(); err != nil {
			t.Errorf("outcome: [%s] %v", section, err)
			return
		}
		if seen[g.key()] {
			t.Errorf("outcome: [%s] %s seed %d measured twice", section, g.Scenario, g.Seed)
			return
		}
		seen[g.key()] = true
		i, ok := at[g.key()]
		if !ok {
			sec.lines = append(sec.lines, g)
			changed = append(changed, fmt.Sprintf("[%s] %s seed %d: new, %v", section, g.Scenario, g.Seed, g.Verdict))
			continue
		}
		was := sec.lines[i].Verdict
		if !ratchet {
			t.Logf("outcome: [%s] %s %d: measured %q, committed %q", section, g.Scenario, g.Seed, g.Verdict, was)
		}
		if was == g.Verdict {
			continue
		}
		msg := fmt.Sprintf("[%s] %s seed %d: committed %q, now %q", section, g.Scenario, g.Seed, was, g.Verdict)
		if ratchet && g.Kind > was.Kind {
			worse = append(worse, msg)
			continue
		}
		sec.lines[i] = g
		changed = append(changed, msg)
	}
	if len(worse) > 0 {
		for _, w := range worse {
			t.Errorf("outcome got worse: %s", w)
		}
		t.Errorf("outcome: %s left as it was; fix the regression, the ledger only takes improvements", file)
		return
	}
	if len(changed) == 0 {
		return
	}
	for _, c := range changed {
		t.Logf("outcome: %s", c)
	}
	if err := os.WriteFile(path, []byte(l.String()), 0o644); err != nil {
		t.Errorf("outcome: %v", err)
		return
	}
	t.Logf("outcome: %d line(s) of [%s] rewritten in %s", len(changed), section, file)
}

// resolve makes a relative file name absolute from the module root, the
// nearest directory at or above the working directory that holds go.mod.
func resolve(file string) (string, error) {
	if filepath.IsAbs(file) {
		return file, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, file), nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no go.mod at or above the working directory")
		}
		dir = up
	}
}

type key struct {
	scenario string
	seed     int64
}

func (l Line) key() key { return key{l.Scenario, l.Seed} }

func (l Line) valid() error {
	if l.Scenario == "" || strings.ContainsAny(l.Scenario, " \t\n[]#") {
		return fmt.Errorf("scenario %q is not one word", l.Scenario)
	}
	if l.Kind < Pass || l.Kind > Diverged {
		return fmt.Errorf("%s seed %d: unknown verdict %v", l.Scenario, l.Seed, l.Kind)
	}
	return nil
}

// oneLine folds a note's runs of white space, newlines included, to one
// space: a note is the rest of its line.
func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

// ledger is the parsed file: a free-form header of comment lines, then
// sections, each a "[name]" line followed by one line per (scenario, seed):
// scenario, seed, verdict and the note, separated by white space.
type ledger struct {
	header   []string
	sections []*section
}

type section struct {
	name  string
	lines []Line
}

// section returns the named section, appending an empty one if the file
// has none.
func (l *ledger) section(name string) *section {
	for _, s := range l.sections {
		if s.name == name {
			return s
		}
	}
	s := &section{name: name}
	l.sections = append(l.sections, s)
	return s
}

func parse(text string) (*ledger, error) {
	l := &ledger{}
	var cur *section
	seen := map[key]bool{}
	for n, raw := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "#") && cur == nil:
			l.header = append(l.header, line)
		case line == "":
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			name := line[1 : len(line)-1]
			if name == "" || strings.ContainsAny(name, " \t") {
				return nil, fmt.Errorf("line %d: malformed section name %q", n+1, line)
			}
			for _, s := range l.sections {
				if s.name == name {
					return nil, fmt.Errorf("line %d: section [%s] appears twice", n+1, name)
				}
			}
			cur = &section{name: name}
			l.sections = append(l.sections, cur)
			seen = map[key]bool{}
		case cur == nil:
			return nil, fmt.Errorf("line %d: %q is neither a comment nor in a section", n+1, line)
		default:
			f := strings.Fields(line)
			if len(f) < 3 {
				return nil, fmt.Errorf("line %d: %q: want scenario, seed, verdict and a note", n+1, line)
			}
			seed, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: seed %q is not a number", n+1, f[1])
			}
			kind, ok := parseKind(f[2])
			if !ok {
				return nil, fmt.Errorf("line %d: unknown verdict %q (want one of %s)", n+1, f[2], strings.Join(kindNames[:], ", "))
			}
			ln := Line{f[0], seed, Verdict{kind, strings.Join(f[3:], " ")}}
			if err := ln.valid(); err != nil {
				return nil, fmt.Errorf("line %d: %v", n+1, err)
			}
			if seen[ln.key()] {
				return nil, fmt.Errorf("line %d: [%s] %s seed %d appears twice", n+1, cur.name, ln.Scenario, ln.Seed)
			}
			seen[ln.key()] = true
			cur.lines = append(cur.lines, ln)
		}
	}
	return l, nil
}

// String renders the ledger: the header, then each section with its
// columns aligned.
func (l *ledger) String() string {
	var b strings.Builder
	for _, h := range l.header {
		b.WriteString(h + "\n")
	}
	for _, s := range l.sections {
		sw, dw := 0, 0
		for _, ln := range s.lines {
			sw = max(sw, len(ln.Scenario))
			dw = max(dw, len(strconv.FormatInt(ln.Seed, 10)))
		}
		fmt.Fprintf(&b, "\n[%s]\n", s.name)
		for _, ln := range s.lines {
			row := fmt.Sprintf("%-*s %*d  %-8s %s", sw, ln.Scenario, dw, ln.Seed, ln.Kind, ln.Note)
			b.WriteString(strings.TrimRight(row, " ") + "\n")
		}
	}
	return b.String()
}
