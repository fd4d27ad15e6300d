package lint

import "go/ast"

// Walltime forbids reading the wall clock in deterministic packages.
//
// The DES substrate owns time: every duration in the simulated system is
// derived from the event clock (sim.Simulation), so a single time.Now in a
// deterministic package silently couples results to the host's scheduler
// and clock resolution. The commands and the tooling are excluded by the
// policy's deterministic set, not by this analyzer.
var Walltime = &Analyzer{
	Name:  "walltime",
	Doc:   "forbid time.Now/Since/Sleep/timers in deterministic packages",
	Scope: ScopeDeterministic,
	Run:   runWalltime,
}

// wallFuncs are the time package entry points that observe or wait on the
// host clock. Pure constructors and arithmetic (time.Duration, time.Unix,
// Parse, Date) stay legal: they are deterministic functions of their
// arguments.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runWalltime(p *Pass) {
	inspectAll(p, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, name, ok := pkgSel(p.Info, sel); ok && pkg == "time" && wallFuncs[name] {
			p.Reportf(sel.Pos(), "time.%s reads the wall clock; deterministic packages take time from the DES clock (sim.Simulation)", name)
		}
		return true
	})
}
