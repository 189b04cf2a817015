package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader discovers, parses, and type-checks packages by walking the
// module directory tree — no go/packages, no build cache. Standard
// library imports are satisfied by go/importer's source importer (one
// shared instance, so the stdlib is type-checked once per process);
// module-local "repro/..." imports are resolved against the module root
// and type-checked recursively with the same machinery.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root directory (holds go.mod)
	Module string // module path from go.mod, e.g. "repro"

	std     types.ImporterFrom
	cache   map[string]*types.Package // import-path → checked package (imports only)
	loading map[string]bool           // cycle guard
}

// NewLoader creates a Loader for the module rooted at dir (or the
// nearest ancestor of dir containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer honors build.Default. Force cgo off so
	// packages like net resolve to their pure-Go fallbacks instead of
	// requiring a cgo toolchain at lint time.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		Root:    root,
		Module:  mod,
		cache:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	l.std = std
	return l, nil
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths are
// loaded from the repo tree, everything else goes to the source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		p, err := l.check(filepath.Join(l.Root, rel), path, nil)
		if err != nil {
			return nil, err
		}
		l.cache[path] = p.Types
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// LoadDir parses and type-checks the package in dir under the given
// import path, with full type info for analysis. The import path
// controls analyzer scoping, which is what lets the golden-file corpus
// masquerade as in-scope packages.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	return l.check(dir, importPath, info)
}

// check parses the non-test files of dir and type-checks them.
func (l *Loader) check(dir, importPath string, info *types.Info) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	p := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Info: info}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	tp, _ := conf.Check(importPath, l.Fset, files, info)
	p.Types = tp
	return p, nil
}

// parseDir parses every non-test .go file in dir (no recursion),
// skipping files excluded by build tags we care about — none today, so
// this is a plain suffix filter.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
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
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Packages resolves CLI-style package patterns relative to the module
// root: "./..." and "./dir/..." walk subtrees, anything else names one
// directory. Directories named testdata or vendor, hidden directories,
// and directories without non-test Go files are skipped.
func (l *Loader) Packages(patterns []string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := l.walk(l.Root, dirs); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.Root, strings.TrimSuffix(pat, "/..."))
			if err := l.walk(base, dirs); err != nil {
				return nil, err
			}
		default:
			d := filepath.Join(l.Root, pat)
			if hasGoFiles(d) {
				dirs[d] = true
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", pat)
			}
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	var pkgs []*Package
	for _, d := range sorted {
		rel, err := filepath.Rel(l.Root, d)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		p, err := l.LoadDir(d, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// walk collects every package directory under base.
func (l *Loader) walk(base string, dirs map[string]bool) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" ||
				(strings.HasPrefix(name, ".") && path != base) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
}

// hasGoFiles reports whether dir contains at least one non-test Go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
