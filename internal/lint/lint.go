// Package lint is cescalint: a determinism-enforcing static-analysis
// driver for the CE-scaling tree.
//
// Every result this reproduction publishes rests on an invariant the
// compiler cannot check: bit-identical determinism. Stdout must be
// byte-identical at any -parallel level, the DES clock must never read wall
// time, and floating-point summation order must be fixed. Runtime tests
// catch a violation only when one happens to exercise it; cescalint makes
// the invariant structural by failing `make check` at parse time. (The
// other promise, allocation-free steady-state hot paths, is a runtime
// property and is measured by the Test...ZeroAlloc gates.)
//
// The driver walks the module, type-checks each package with the standard
// library's export data plus the module's own source (zero dependencies, no
// network), and runs a pluggable set of domain analyzers over one package
// at a time. Findings print deterministically — sorted by file:line:column —
// and can be suppressed only by an explicit, reasoned pragma on the
// offending line or the line above:
//
//	//cescalint:allow walltime -- stderr-only diagnostic, never on stdout
//
// A pragma that names an unknown analyzer, omits the "-- reason", or
// suppresses no finding at all (a stale pragma) is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Scope declares which packages an analyzer runs on.
type Scope int

const (
	// ScopeAll runs the analyzer on every package in the module.
	ScopeAll Scope = iota
	// ScopeDeterministic runs the analyzer only on packages the policy
	// marks deterministic.
	ScopeDeterministic
)

// An Analyzer is one domain check over a type-checked package.
type Analyzer struct {
	Name  string
	Doc   string
	Scope Scope
	Run   func(*Pass)
}

// All returns the full analyzer suite, in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{Walltime, GlobalRand, MapOrder, FPReduce, ImportBoundary, Shardsafe}
}

// A Finding is one rule violation at a source position. File is relative to
// the module root so output is stable across checkouts.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset   *token.FileSet
	Path   string // import path of the package under analysis
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Policy *Policy

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Target is one package directory to lint, with the import path it is
// analyzed under.
type Target struct {
	Dir  string
	Path string
}

// Runner drives the analyzer suite over a module.
type Runner struct {
	Root      string // module root directory (holds go.mod)
	Module    string // module path
	Policy    *Policy
	Analyzers []*Analyzer

	fset *token.FileSet
	imp  *moduleImporter
}

// NewRunner returns a Runner over the module rooted at root with the full
// analyzer suite.
func NewRunner(root, module string, policy *Policy) *Runner {
	fset := token.NewFileSet()
	return &Runner{
		Root:      root,
		Module:    module,
		Policy:    policy,
		Analyzers: All(),
		fset:      fset,
		imp:       newModuleImporter(root, module, fset),
	}
}

// DiscoverTargets walks the module tree and returns every package directory
// (skipping testdata and hidden directories), sorted by import path.
func (r *Runner) DiscoverTargets() ([]Target, error) {
	var targets []Target
	err := filepath.WalkDir(r.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != r.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil // directory without Go files; keep walking
			}
			return err
		}
		rel, err := filepath.Rel(r.Root, path)
		if err != nil {
			return err
		}
		importPath := r.Module
		if rel != "." {
			importPath = r.Module + "/" + filepath.ToSlash(rel)
		}
		targets = append(targets, Target{Dir: path, Path: importPath})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Path < targets[j].Path })
	return targets, nil
}

// Run lints the given targets and returns all surviving findings sorted by
// (file, line, column, analyzer, message). Every analyzer looks at one
// package at a time, so the targets are simply taken in order.
func (r *Runner) Run(targets []Target) ([]Finding, error) {
	var findings []Finding
	for _, t := range targets {
		fs, err := r.runPackage(t)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}

	for i := range findings {
		if rel, err := filepath.Rel(r.Root, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = filepath.ToSlash(rel)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// runPackage type-checks one target through the shared importer cache, runs
// every applicable analyzer, filters the findings through the package's
// allow-pragmas and reports the pragmas that suppressed nothing.
func (r *Runner) runPackage(t Target) ([]Finding, error) {
	lp, err := r.imp.load(t.Path)
	if err != nil {
		return nil, err
	}
	pragmas, findings := r.collectPragmas(lp.files)
	if !r.Policy.Covers(t.Path) && len(lp.files) > 0 {
		position := r.fset.Position(lp.files[0].Pos())
		findings = append(findings, Finding{
			File: position.Filename, Line: position.Line, Col: position.Column,
			Analyzer: "policy",
			Message:  fmt.Sprintf("package %s is not covered by cescalint.policy; add it to the deterministic, output, or unchecked set", t.Path),
		})
	}
	for _, a := range r.Analyzers {
		if a.Scope == ScopeDeterministic && !r.Policy.IsDeterministic(t.Path) {
			continue
		}
		pass := &Pass{
			Fset:     r.fset,
			Path:     t.Path,
			Files:    lp.files,
			Pkg:      lp.pkg,
			Info:     lp.info,
			Policy:   r.Policy,
			analyzer: a.Name,
			findings: &findings,
		}
		a.Run(pass)
	}
	findings = suppress(findings, pragmas)
	// Every pragma must have earned its keep: one that suppressed nothing
	// rotted and is itself a finding.
	for _, p := range pragmas {
		if !p.used {
			findings = append(findings, Finding{
				File: p.file, Line: p.line, Col: p.col,
				Analyzer: "pragma",
				Message:  fmt.Sprintf("stale pragma: //cescalint:allow %s suppresses no finding; remove it", p.analyzer),
			})
		}
	}
	return findings, nil
}

// pragma is one parsed //cescalint:allow comment.
type pragma struct {
	file     string
	line     int
	col      int
	analyzer string
	used     bool // set when the pragma suppresses a finding
}

const pragmaPrefix = "//cescalint:"

// collectPragmas parses every cescalint directive in files. Malformed
// directives (unknown verb, unknown analyzer name, missing reason) are
// returned as findings so a misspelled suppression cannot silently widen
// the allowed surface.
func (r *Runner) collectPragmas(files []*ast.File) ([]*pragma, []Finding) {
	known := make(map[string]bool, len(r.Analyzers))
	for _, a := range r.Analyzers {
		known[a.Name] = true
	}
	var pragmas []*pragma
	var findings []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, pragmaPrefix)
				if !ok {
					continue
				}
				position := r.fset.Position(c.Pos())
				name, problem := parseDirective(rest, known)
				if problem != "" {
					findings = append(findings, Finding{
						File: position.Filename, Line: position.Line, Col: position.Column,
						Analyzer: "pragma", Message: problem,
					})
					continue
				}
				pragmas = append(pragmas, &pragma{
					file: position.Filename, line: position.Line, col: position.Column, analyzer: name,
				})
			}
		}
	}
	return pragmas, findings
}

// parseDirective parses what follows "//cescalint:" in one comment. A
// well-formed directive is "allow <analyzer> -- <reason>" naming a known
// analyzer; for anything else problem says what is wrong and the comment
// suppresses nothing.
func parseDirective(rest string, known map[string]bool) (analyzer, problem string) {
	if !strings.HasPrefix(rest, "allow ") && rest != "allow" {
		verb := "(empty)"
		if fs := strings.Fields(rest); len(fs) > 0 {
			verb = fs[0]
		}
		return "", fmt.Sprintf("unknown cescalint directive %q (want \"allow\")", verb)
	}
	name, reason, hasReason := strings.Cut(strings.TrimPrefix(rest, "allow"), "--")
	name = strings.TrimSpace(name)
	switch {
	case name == "":
		return "", "cescalint:allow pragma names no analyzer"
	case !known[name]:
		return "", fmt.Sprintf("cescalint:allow pragma names unknown analyzer %q", name)
	case !hasReason || strings.TrimSpace(reason) == "":
		return "", fmt.Sprintf("cescalint:allow %s pragma requires a reason: `//cescalint:allow %s -- <why>`", name, name)
	}
	return name, ""
}

// suppress drops findings covered by a same-analyzer pragma on the finding's
// own line or the line directly above it, marking each covering pragma used
// for the end-of-run stale audit.
func suppress(findings []Finding, pragmas []*pragma) []Finding {
	if len(pragmas) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		allowed := false
		for _, p := range pragmas {
			if p.analyzer == f.Analyzer && p.file == f.File && (p.line == f.Line || p.line == f.Line-1) {
				p.used = true
				allowed = true
			}
		}
		if !allowed {
			kept = append(kept, f)
		}
	}
	return kept
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if path, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(path), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
