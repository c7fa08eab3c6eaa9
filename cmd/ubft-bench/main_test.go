package main

import (
	"bytes"
	"strings"
	"testing"
)

// titles maps each experiment switch to the first line its printer writes.
var titles = []struct{ args, title string }{
	{"-fig 7", "Figure 7: end-to-end application latency"},
	{"-fig 8", "Figure 8: median end-to-end latency vs request size"},
	{"-fig 9", "Figure 9: recursive latency decomposition"},
	{"-fig 10", "Figure 10: median non-equivocation latency vs message size"},
	{"-fig 11", "Figure 11: uBFT tail latency for different CTBcast tails"},
	{"-table 2", "Table 2: memory consumption vs CTBcast tail and request size"},
	{"-throughput", "Section 9 throughput: 32 B requests, closed loop"},
}

func runArgs(args string) (string, int) {
	var out bytes.Buffer
	code := run(strings.Fields(args), &out)
	return out.String(), code
}

// TestEachSwitchPrintsItsExperiment: every switch regenerates exactly its
// own table and exits 0; -all regenerates all seven.
func TestEachSwitchPrintsItsExperiment(t *testing.T) {
	for _, c := range titles {
		out, code := runArgs(c.args + " -samples 20")
		if code != 0 || !strings.HasPrefix(out, c.title) {
			t.Errorf("%s: exit %d, output starts %q, want %q", c.args, code, firstLine(out), c.title)
		}
		for _, other := range titles {
			if other != c && strings.Contains(out, other.title) {
				t.Errorf("%s also printed %q", c.args, other.title)
			}
		}
	}
	out, code := runArgs("-all -samples 20")
	if code != 0 {
		t.Fatalf("-all: exit %d", code)
	}
	for _, c := range titles {
		if !strings.Contains(out, c.title) {
			t.Errorf("-all did not print %q", c.title)
		}
	}
}

// TestNothingSelectedIsAnError: no switch, an unknown figure number and a
// flag that does not exist (-readmix went with the experiment it ran) all
// print nothing and exit 2; -h prints nothing either and exits 0.
func TestNothingSelectedIsAnError(t *testing.T) {
	for _, args := range []string{"", "-samples 20", "-fig 12", "-readmix"} {
		if out, code := runArgs(args); code != 2 || out != "" {
			t.Errorf("%q: exit %d with %d bytes of output, want 2 and none", args, code, len(out))
		}
	}
	if out, code := runArgs("-h"); code != 0 || out != "" {
		t.Errorf("-h: exit %d with %d bytes of output, want 0 and none", code, len(out))
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
