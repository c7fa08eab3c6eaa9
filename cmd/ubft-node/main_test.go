package main

import (
	"bytes"
	"strings"
	"testing"
)

func runArgs(args string) (string, int) {
	var out bytes.Buffer
	code := run(strings.Fields(args), &out)
	return out.String(), code
}

// TestBadArgumentsStartNoNode: a role, an application or a peer table that
// does not parse, and a flag that does not exist (-joinnonce went when the
// boot clock took its job), each cost one line on stderr and a non-zero
// exit. run returning at all is the proof that no node was started: a
// started one serves until it is signalled.
func TestBadArgumentsStartNoNode(t *testing.T) {
	for args, want := range map[string]string{
		"-role bogus":             "bogus",
		"-app bogus":              "bogus",
		"-peers 0=127.0.0.1:1,17": "17",
		"-coldjoin -joinnonce 1":  "joinnonce",
	} {
		out, code := runArgs(args)
		if code == 0 || strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "ubft-node: ") || !strings.Contains(out, want) {
			t.Errorf("%q: exit %d, stderr %q; want non-zero and one line naming %q", args, code, out, want)
		}
	}
}

// TestHelpListsTheFlags: -h exits 0 with the flag list, every shape flag in it.
func TestHelpListsTheFlags(t *testing.T) {
	out, code := runArgs("-h")
	if code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	for _, name := range []string{"-role", "-index", "-listen", "-peers", "-app", "-seed", "-f", "-fm",
		"-memnodes", "-clients", "-window", "-tail", "-coldjoin", "-cpuprofile"} {
		if !strings.Contains(out, "  "+name+" ") && !strings.Contains(out, "  "+name+"\n") {
			t.Errorf("-h does not list %s", name)
		}
	}
	if n := strings.Count("\n"+out, "\n  -"); n != 14 {
		t.Errorf("-h lists %d flags, want 14", n)
	}
}
