package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// ImportBoundary keeps deterministic packages off the host.
//
// Everything the CE-scaling logic runs on is the simulated substrate
// (internal/platform): time is the DES clock, randomness its seeded
// streams, storage its in-memory store. Deterministic packages must not
// reach past it for the host: the policy's forbid list (net and every
// net/* subpackage) and os. Process output (os.Stdout, fmt.Print*) is
// reserved for the policy's output set — the experiment renderers and
// commands — so every byte on stdout has exactly one, auditable, producer.
var ImportBoundary = &Analyzer{
	Name:  "importboundary",
	Doc:   "keep deterministic packages off the network and process I/O",
	Scope: ScopeDeterministic,
	Run:   runImportBoundary,
}

func runImportBoundary(p *Pass) {
	isOutput := p.Policy.IsOutput(p.Path)
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch {
			case p.Policy.ForbiddenImport(path):
				p.Reportf(imp.Pos(), "deterministic package imports %s, which the policy forbids; the only substrate is the simulation (internal/platform)", path)
			case path == "os" && !isOutput:
				p.Reportf(imp.Pos(), "deterministic package imports os; process I/O is reserved for the policy's output packages")
			}
		}
	}
	if isOutput {
		return
	}
	inspectAll(p, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, name, ok := pkgSel(p.Info, sel)
		if !ok {
			return true
		}
		switch {
		case pkg == "os" && (name == "Stdout" || name == "Stderr" || name == "Stdin"):
			p.Reportf(sel.Pos(), "os.%s in a deterministic package; only the policy's output packages touch process streams", name)
		case pkg == "fmt" && strings.HasPrefix(name, "Print"):
			p.Reportf(sel.Pos(), "fmt.%s writes to process stdout; deterministic packages return values and let an output package print", name)
		}
		return true
	})
}
