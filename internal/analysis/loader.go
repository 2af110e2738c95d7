package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("streampca/internal/core").
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	// Info is the loader-wide type information map, shared by every package
	// and every analyzer so the tree is type-checked exactly once.
	Info *types.Info
	Fset *token.FileSet
}

// Loader parses and type-checks the repository's packages from source. Module
// -local imports are resolved by recursively type-checking their sources;
// standard-library imports are resolved from the gc toolchain's export data
// (located with `go list -export`, read by go/importer), which keeps the
// loader stdlib-only while avoiding a full source type-check of the standard
// library.
type Loader struct {
	Fset *token.FileSet

	root    string
	modPath string
	info    *types.Info
	pkgs    map[string]*Package
	loading map[string]bool
	exports map[string]string
	gc      types.Importer
	primed  bool
}

// NewLoader returns a loader rooted at the module directory root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		root:    abs,
		modPath: modPath,
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		},
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		exports: make(map[string]string),
	}
	l.gc = importer.ForCompiler(fset, "gc", l.lookupExport)
	return l, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// ModulePath returns the module's import-path prefix.
func (l *Loader) ModulePath() string { return l.modPath }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadAll parses and type-checks every package under the module root
// (skipping testdata, vendor and hidden directories), returning them sorted
// by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. It exists for golden-file tests, whose fixture packages live
// in testdata (invisible to LoadAll) but need a real import path so that
// analyzer Match functions see them as the package they stand in for.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.check(importPath, abs)
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true, nil
		}
	}
	return false, nil
}

// load type-checks the module-local package with the given import path,
// memoized across the loader.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	return l.check(path, dir)
}

func (l *Loader) check(path, dir string) (*Package, error) {
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Honour _GOARCH suffixes and //go:build lines, as the compiler does:
		// a kernel declared per architecture is otherwise declared twice.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source in %s", dir)
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: l.info, Fset: l.Fset}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-local packages are type-checked
// from source, everything else comes from gc export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.gc.Import(path)
}

// lookupExport streams the gc export data for one dependency import path,
// locating it through the go command's build cache. The first call primes the
// cache with every dependency of the repo in one `go list` invocation;
// later misses (e.g. a testdata fixture importing a package the repo itself
// does not) resolve individually.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	if f, ok := l.exports[path]; ok {
		return os.Open(f)
	}
	if !l.primed {
		l.primed = true
		if err := l.primeExports("./..."); err != nil {
			return nil, err
		}
		if f, ok := l.exports[path]; ok {
			return os.Open(f)
		}
	}
	if err := l.primeExports(path); err != nil {
		return nil, err
	}
	f, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(f)
}

func (l *Loader) primeExports(pattern string) error {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Export", pattern)
	cmd.Dir = l.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("analysis: go list -export %s: %v\n%s", pattern, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			break
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}
