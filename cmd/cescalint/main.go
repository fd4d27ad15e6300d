// Command cescalint runs the determinism-enforcing static-analysis suite
// over the module.
//
// Usage:
//
//	cescalint [-policy file] [./... | dir...]
//
// With no arguments (or "./..."), the whole module is linted. Findings
// print to stdout sorted by file:line:column, one per line; the exit
// status is 1 when there are findings, 0 on a clean tree. Analyzer scopes
// and package sets come from cescalint.policy at the module root (see
// internal/lint and DESIGN.md "Determinism invariants").
//
// Suppress a finding only with a reasoned pragma on the offending line or
// the line above:
//
//	//cescalint:allow walltime -- stderr-only diagnostic, never on stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	policyPath := flag.String("policy", "", "policy file (default: cescalint.policy at the module root)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cescalint [-policy file] [./... | dir...]\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, module, err := lint.FindModule(wd)
	if err != nil {
		return fail(err)
	}
	if *policyPath == "" {
		*policyPath = filepath.Join(root, "cescalint.policy")
	}
	policy, err := lint.LoadPolicy(*policyPath)
	if err != nil {
		return fail(err)
	}

	r := lint.NewRunner(root, module, policy)
	targets, err := resolveTargets(r, flag.Args())
	if err != nil {
		return fail(err)
	}
	findings, err := r.Run(targets)
	if err != nil {
		return fail(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cescalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// resolveTargets maps command-line arguments to lint targets: no arguments
// or "./..." means the whole module; anything else is a package directory.
func resolveTargets(r *lint.Runner, args []string) ([]lint.Target, error) {
	if len(args) == 0 || (len(args) == 1 && args[0] == "./...") {
		return r.DiscoverTargets()
	}
	var targets []lint.Target
	for _, arg := range args {
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(r.Root, abs)
		if err != nil || rel == ".." || filepath.IsAbs(rel) || (len(rel) > 2 && rel[:3] == "../") {
			return nil, fmt.Errorf("%s: outside module root %s", arg, r.Root)
		}
		path := r.Module
		if rel != "." {
			path = r.Module + "/" + filepath.ToSlash(rel)
		}
		targets = append(targets, lint.Target{Dir: abs, Path: path})
	}
	return targets, nil
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "cescalint: %v\n", err)
	return 2
}
