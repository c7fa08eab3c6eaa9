package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestDemoPhasesSucceed: every phase of the demo completes, and the leader
// crash ends with both survivors in a later view holding equal states.
func TestDemoPhasesSucceed(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("demo failed: %v\n%s", err, out.String())
	}
	views := map[int]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		var i, v int
		if n, _ := fmt.Sscanf(line, "replica %d now in view %d", &i, &v); n == 2 {
			views[i] = v
		}
	}
	if views[1] < 1 || views[2] < 1 {
		t.Errorf("survivor views after the leader crash: %v, want both >= 1", views)
	}
	if !strings.Contains(out.String(), "replica1 state == replica2 state: true") {
		t.Errorf("survivors disagree:\n%s", out.String())
	}
}
