// Package lint is a self-hosted static-analysis framework for the POP
// reproduction, built on nothing but the standard library's go/parser,
// go/ast, and go/types. It loads and type-checks packages and runs a suite
// of repo-specific analyzers that machine-check the invariants the paper's
// claims rest on: deterministic simulated cost units, map-iteration-free
// plan choice, propagated close errors, and atomic-access consistency in
// the parallel runtime.
//
// Findings print as "file:line: [rule] message". A site can opt out with an
// annotation comment
//
//	//poplint:allow <rule>[,<rule>...] <reason>
//
// placed either at the end of the offending line or on its own line
// directly above it. The reason is mandatory; a malformed annotation is
// itself a finding. Suppression is exact: the annotation covers the single
// annotated source line and nothing else.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path    string // import path ("repro/internal/optimizer")
	Dir     string
	Files   []*ast.File
	Sources map[string][]byte // filename -> source bytes, for annotation parsing
	Types   *types.Package
	Info    *types.Info
}

// Program is the full set of packages a lint run analyzes. Analyzers run
// once per program so whole-program rules (atomic consistency) see every
// access site.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // sorted by import path

	graph *CallGraph // built on first use within one Run, dropped on return
}

// Loader parses and type-checks packages from a Go module using only the
// standard library: module-internal imports are resolved by recursively
// type-checking their directories, everything else (stdlib) is type-checked
// from source under GOROOT via go/importer's "source" compiler. No GOPATH,
// no export data, no x/tools.
type Loader struct {
	ModulePath string
	RootDir    string

	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package // import path -> loaded package
	errs []error             // type/parse errors accumulated across loads
}

// NewLoader creates a loader rooted at the module containing dir (dir or
// the nearest parent holding a go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		ModulePath: modPath,
		RootDir:    root,
		fset:       fset,
		pkgs:       map[string]*Package{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Errors returns parse/type errors accumulated by every load so far.
func (l *Loader) Errors() []error { return l.errs }

// LoadPatterns loads the packages matched by go-style patterns relative to
// the module root: "./..." walks the whole module, "./internal/..." a
// subtree, and a plain relative directory loads that one package. Returns a
// Program with packages sorted by import path.
func (l *Loader) LoadPatterns(patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var pkgs []*Package
	add := func(p *Package) {
		if p != nil && !seen[p.Path] {
			seen[p.Path] = true
			pkgs = append(pkgs, p)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := filepath.Join(l.RootDir, filepath.FromSlash(strings.TrimPrefix(rest, "./")))
			dirs, err := goDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				p, err := l.loadDir(d, l.pathForDir(d))
				if err != nil {
					return nil, err
				}
				add(p)
			}
			continue
		}
		d := filepath.Join(l.RootDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		p, err := l.loadDir(d, l.pathForDir(d))
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no non-test Go files in %s", pat)
		}
		add(p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return &Program{Fset: l.fset, Packages: pkgs}, nil
}

// LoadDirAs loads the single directory dir as if it had the given import
// path. Tests use this to place fixture packages under testdata inside the
// path scopes the analyzers enforce.
func (l *Loader) LoadDirAs(dir, path string) (*Program, error) {
	p, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	return &Program{Fset: l.fset, Packages: []*Package{p}}, nil
}

func (l *Loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// goDirs returns every directory under root that contains at least one
// non-test .go file, skipping testdata, hidden, and VCS directories.
func goDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isSourceName(e.Name()) {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	return out, err
}

func isSourceName(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// loadDir parses and type-checks the package in dir under the given import
// path, memoized. Returns (nil, nil) if dir holds no non-test Go files.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	sources := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() || !isSourceName(e.Name()) {
			continue
		}
		fn := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, fn, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		files = append(files, f)
		sources[fn] = src
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { l.errs = append(l.errs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info) // errors land in l.errs
	p := &Package{Path: path, Dir: dir, Files: files, Sources: sources, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// loaderImporter adapts the loader into a types.Importer: module-internal
// paths recurse into loadDir, all else goes to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dir := filepath.Join(l.RootDir, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
		p, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go files for %s", path)
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.RootDir, 0)
}
