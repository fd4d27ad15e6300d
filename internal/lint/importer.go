package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// loadedPkg is one module package parsed and type-checked exactly once per
// run, for the analyzers and for every package that imports it.
type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
	done  bool // false while the package's own imports are being loaded
}

// moduleImporter resolves imports for type-checking without any network or
// third-party machinery: standard-library packages come from the compiler's
// export data (go/importer, "gc"), and packages inside this module are
// parsed and type-checked from source, recursively, with results cached and
// shared across the whole run.
type moduleImporter struct {
	root   string // module root directory
	module string // module path ("repro")
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*loadedPkg
}

func newModuleImporter(root, module string, fset *token.FileSet) *moduleImporter {
	return &moduleImporter{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "gc", nil),
		pkgs:   make(map[string]*loadedPkg),
	}
}

func (m *moduleImporter) inModule(path string) bool {
	return path == m.module || strings.HasPrefix(path, m.module+"/")
}

// dirFor maps a module import path to its directory under the module root.
func (m *moduleImporter) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, m.module), "/")
	return filepath.Join(m.root, filepath.FromSlash(rel))
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !m.inModule(path) {
		return m.std.Import(path)
	}
	lp, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return lp.pkg, nil
}

// load parses and type-checks the module package at path, memoized for the
// run; type-checking it loads the module packages it imports first.
func (m *moduleImporter) load(path string) (*loadedPkg, error) {
	if lp, ok := m.pkgs[path]; ok {
		if !lp.done {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return lp, lp.err
	}
	lp := &loadedPkg{}
	m.pkgs[path] = lp
	defer func() { lp.done = true }()

	lp.files, lp.err = m.parseDir(m.dirFor(path))
	if lp.err != nil {
		lp.err = fmt.Errorf("load %q: %w", path, lp.err)
		return lp, lp.err
	}
	lp.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: m}
	lp.pkg, lp.err = conf.Check(path, m.fset, lp.files, lp.info)
	if lp.err != nil {
		lp.err = fmt.Errorf("typecheck %s: %w", path, lp.err)
	}
	return lp, lp.err
}

// parseDir parses the non-test Go files of one package directory, honouring
// build constraints via go/build.
func (m *moduleImporter) parseDir(dir string) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
