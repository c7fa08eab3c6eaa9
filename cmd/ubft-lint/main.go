// Command ubft-lint runs the project-invariant static-analysis suite
// (internal/analysis) over the module: determinism, poolsafety,
// tagregistry, appagnostic and doclint. It exits non-zero on any unwaived
// finding, and — when the full suite runs — on unused waivers or a waiver
// tally above the budget, so the waiver count cannot grow silently.
//
// Usage:
//
//	ubft-lint [-passes determinism,poolsafety,tagregistry,appagnostic,doclint]
//	          [-max-waivers N] [-C dir] [packages]
//
// The default package pattern is ./... at the module root; -C points at a
// different module. -max-waivers defaults to analysis.WaiverBudget.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run lints what args select, printing findings and the tally on stdout,
// and returns the exit status: 1 for a finding or a waiver tally over
// budget, 2 for a flag, pass or load error (one line on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ubft-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passNames := fs.String("passes", "all", "comma-separated pass names, or 'all'")
	maxWaivers := fs.Int("max-waivers", analysis.WaiverBudget, "fail if more waiver directives than this are in effect (full suite only)")
	chdir := fs.String("C", "", "module root (default: walk up from cwd to go.mod)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}

	root := *chdir
	if root == "" {
		var err error
		if root, err = findModuleRoot(); err != nil {
			return fail(err)
		}
	}
	passes, full, err := selectPasses(*passNames)
	if err != nil {
		return fail(err)
	}
	w, err := analysis.Load(root, fs.Args()...)
	if err != nil {
		return fail(err)
	}

	res := analysis.Apply(w, passes, analysis.Options{CheckUnused: full})
	for _, f := range res.Findings {
		pos := f.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, f.Pass, f.Msg)
	}

	var parts []string
	for _, d := range sortedKeys(res.ByPass) {
		parts = append(parts, fmt.Sprintf("%s=%d", d, res.ByPass[d]))
	}
	detail := ""
	if len(parts) > 0 {
		detail = " (" + strings.Join(parts, " ") + ")"
	}
	fmt.Fprintf(stdout, "ubft-lint: %d finding(s), %d waiver(s) in effect%s, budget %d\n",
		len(res.Findings), res.Waivers, detail, *maxWaivers)

	if len(res.Findings) > 0 {
		return 1
	}
	if full && res.Waivers > *maxWaivers {
		fmt.Fprintf(stdout, "ubft-lint: waiver tally %d exceeds budget %d — remove waivers or raise analysis.WaiverBudget deliberately\n",
			res.Waivers, *maxWaivers)
		return 1
	}
	return 0
}

// selectPasses resolves -passes; full reports whether the whole suite runs
// (which arms the unused-waiver and budget checks).
func selectPasses(names string) ([]analysis.Pass, bool, error) {
	all := analysis.AllPasses()
	if names == "all" || names == "" {
		return all, true, nil
	}
	// A name selects every instance registered under it (appagnostic has
	// one per gated package).
	byName := make(map[string][]analysis.Pass, len(all))
	for _, p := range all {
		byName[p.Name()] = append(byName[p.Name()], p)
	}
	var out []analysis.Pass
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		ps, ok := byName[n]
		if !ok {
			return nil, false, fmt.Errorf("ubft-lint: unknown pass %q (have: determinism, poolsafety, tagregistry, appagnostic, doclint)", n)
		}
		out = append(out, ps...)
	}
	return out, len(out) == len(all), nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("ubft-lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
