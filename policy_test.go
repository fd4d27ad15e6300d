package repro_test

// The determinism rules no behavioural test covers, checked on the source of
// every package's non-test files (go/build, so build tags are honoured; no
// type checking). Package sets come from the path: internal/... is
// deterministic; everything else, plus internal/experiments, may print.
// Order and float determinism are carried by the byte-identity tests instead;
// see DESIGN.md "Determinism invariants".

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// policyExempt waives one rule for one file, keyed "file rule", with why. An
// exemption that waives nothing is itself a violation.
var policyExempt = map[string]string{
	"internal/experiments/engine.go walltime": "per-artifact wall time goes to stderr only, never to stdout",
}

func TestDeterminismPolicy(t *testing.T) {
	vs, err := policyViolations(".", policyExempt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Error(v)
	}
}

// policyViolations checks the module rooted at root and returns each
// violation as "file rule: detail", sorted. The rules:
//
//	globalrand     no package imports math/rand or math/rand/v2
//	importboundary deterministic packages import no net, net/* or os
//	walltime       deterministic packages import no time
//	stdout         fmt.Print* appears only in packages that may print
//	shardsafe      in internal/sim only parallel.go imports sync or
//	               sync/atomic, or has a go, select or channel type
func policyViolations(root string, exempt map[string]string) ([]string, error) {
	var out []string
	used := map[string]bool{}
	report := func(file, rule, detail string) {
		key := file + " " + rule
		if _, ok := exempt[key]; ok {
			used[key] = true
			return
		}
		out = append(out, key+": "+detail)
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		det := strings.HasPrefix(rel, "internal/")
		prints := !det || rel == "internal/experiments"
		for _, name := range pkg.GoFiles {
			file := path.Join(rel, name)
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			kernel := rel == "internal/sim" && name != "parallel.go"
			fmtName := ""
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value) // the parser checked the literal
				switch {
				case p == "math/rand" || p == "math/rand/v2":
					report(file, "globalrand", "imports "+p+"; draw from a seeded sim stream")
				case det && (p == "os" || p == "net" || strings.HasPrefix(p, "net/")):
					report(file, "importboundary", "deterministic package imports "+p)
				case det && p == "time":
					report(file, "walltime", "deterministic package imports time; use the DES clock")
				case kernel && (p == "sync" || p == "sync/atomic"):
					report(file, "shardsafe", "imports "+p+" outside parallel.go")
				case p == "fmt":
					fmtName = "fmt"
					if imp.Name != nil {
						fmtName = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && !prints && x.Name == fmtName && strings.HasPrefix(n.Sel.Name, "Print") {
						report(file, "stdout", "fmt."+n.Sel.Name+" in a package that may not print")
					}
				case *ast.GoStmt, *ast.SelectStmt, *ast.ChanType:
					if kernel {
						report(file, "shardsafe", "go statement, select or channel type outside parallel.go")
					}
				}
				return true
			})
		}
		return nil
	})
	for key, why := range exempt {
		if !used[key] {
			out = append(out, key+": stale exemption ("+why+")")
		}
	}
	sort.Strings(out)
	return out, err
}
