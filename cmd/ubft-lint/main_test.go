package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestModuleLintsClean: the whole suite over the module exits 0 with the
// tally line and no finding.
func TestModuleLintsClean(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run(nil, &out, &errs); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	if !strings.HasPrefix(out.String(), "ubft-lint: 0 finding(s)") {
		t.Fatalf("stdout %q, want only the zero-finding tally", out.String())
	}
}

// TestFixtureFindingFails: the package-doc fixture has no doc comment, so
// the doclint pass reports it and the exit is non-zero.
func TestFixtureFindingFails(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-passes", "doclint", "./internal/analysis/testdata/nodoc"}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	want := "internal/analysis/testdata/nodoc/nodoc.go:1:9: [doclint] package repro/internal/analysis/testdata/nodoc has no '// Package nodoc ...' doc comment"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("stdout %q does not carry the finding %q", out.String(), want)
	}
}
