package lint

import (
	"go/ast"
	"path/filepath"
	"strconv"
)

// Shardsafe confines concurrency to the sharded kernel's sanctioned
// executor file.
//
// The DES kernel's determinism argument (DESIGN.md "Sharded kernel") rests
// on there being exactly one place where goroutines exist: the conservative
// window executor, which only runs whole shards between barriers. Any other
// goroutine, channel, select, or sync/atomic use inside the kernel package
// would order events outside their shards' (time, priority, seq) order,
// and such a bug can stay invisible for months because a 1-CPU run
// serializes it away. Shardsafe makes the confinement structural: the
// policy marks the kernel package `shard-restricted`, lists the executor
// as `shard-exempt`, and every concurrency construct elsewhere in the
// package fails `make check` at parse time. Test files are not linted
// (the importer only loads production sources), so tests remain free to
// spawn goroutines at the kernel.
var Shardsafe = &Analyzer{
	Name:  "shardsafe",
	Doc:   "confine goroutines, channels, select and sync to the sanctioned parallel executor file in shard-restricted packages",
	Scope: ScopeAll,
	Run:   runShardsafe,
}

func runShardsafe(p *Pass) {
	if !p.Policy.IsShardRestricted(p.Path) {
		return
	}
	for _, f := range p.Files {
		name := p.Path + "/" + filepath.Base(p.Fset.Position(f.Pos()).Filename)
		if p.Policy.IsShardExempt(name) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				p.Reportf(imp.Pos(), "import %q outside the shard-exempt executor; kernel synchronization lives only in the sanctioned parallel executor file", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				p.Reportf(v.Pos(), "go statement outside the shard-exempt executor; shards may only run concurrently under the sanctioned window executor")
			case *ast.SelectStmt:
				p.Reportf(v.Pos(), "select statement outside the shard-exempt executor; cross-shard communication goes through Post mailboxes, not channels")
			case *ast.ChanType:
				p.Reportf(v.Pos(), "channel type outside the shard-exempt executor; cross-shard communication goes through Post mailboxes, not channels")
			}
			return true
		})
	}
}
