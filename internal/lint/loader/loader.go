// Package loader parses and type-checks packages of this module for the
// lint suite, using only the standard library plus the go command itself.
//
// Analyzed packages are parsed from source (with comments — the annotation
// checks need them). Their dependencies are NOT re-type-checked from source:
// each import resolves through compiled export data obtained from
// `go list -export`, which serves it out of the build cache. That keeps the
// loader offline-friendly (no module proxy), fast (no transitive source
// type-checking), and correct for cgo-using stdlib packages that a source
// importer cannot handle.
package loader

import (
	"bytes"
	"fmt"
	"go/ast"
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
	"sync"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/runtime"), or a synthetic
	// name for out-of-tree fixture directories.
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker soft failures. Analysis still runs on
	// what checked; the driver surfaces these as their own diagnostics.
	TypeErrors []error
}

// Loader loads packages against one shared FileSet and export-data cache.
type Loader struct {
	Fset *token.FileSet

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
	imp     types.Importer
	modRoot string
}

// New returns a loader rooted at the module containing dir.
func New(dir string) (*Loader, error) {
	root, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
		modRoot: root,
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l, nil
}

// Load resolves patterns (import paths, directories, or `./...`) to package
// directories via `go list` and loads each one. Test files are skipped: the
// suite checks library and command code, and loading external _test packages
// would double every package.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	out, err := goCmd(l.modRoot, append([]string{"list", "-f", "{{.ImportPath}}\x01{{.Dir}}"}, patterns...)...)
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %w", strings.Join(patterns, " "), err)
	}
	var pkgs []*Package
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		path, dir, ok := strings.Cut(line, "\x01")
		if !ok {
			continue
		}
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Fixture directories (testdata trees the go tool ignores) load
// through here with a synthetic path. Returns nil when dir has no non-test
// Go files.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}

	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
	}
	p.Types = tpkg
	p.Info = info
	return p, nil
}

// lookup feeds the gc importer compiled export data for one import path,
// produced (and cached) by the go command's build cache.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		out, err := goCmd(l.modRoot, "list", "-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, fmt.Errorf("loader: export data for %s: %w", path, err)
		}
		file = strings.TrimSpace(out)
		if file == "" {
			return nil, fmt.Errorf("loader: no export data for %s (does it build?)", path)
		}
		l.mu.Lock()
		l.exports[path] = file
		l.mu.Unlock()
	}
	return os.Open(file)
}

// Prefetch batch-resolves export data for the transitive dependencies of
// patterns in one go command invocation, so Load does not shell out once per
// distinct import.
func (l *Loader) Prefetch(patterns ...string) {
	out, err := goCmd(l.modRoot, append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\x01{{.Export}}"}, patterns...)...)
	if err != nil {
		return // best effort; lookup falls back to per-path resolution
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		path, file, ok := strings.Cut(line, "\x01")
		if ok && file != "" {
			l.exports[path] = file
		}
	}
}

// findModule walks up from dir to the directory of the enclosing go.mod.
func findModule(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// goCmd runs the go tool in dir and returns stdout.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return stdout.String(), nil
}
