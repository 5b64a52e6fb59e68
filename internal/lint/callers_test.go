package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/loader"
)

// TestEveryInternalExportHasACaller is the module-wide caller check: every
// exported function and method under internal/ must be used by some non-test
// file of the module or of perf/. Two cases are exempt: a method that
// satisfies an interface (it is called through the interface), and a
// declaration whose doc comment carries `//llmqlint:api <reason>`, the reason
// naming the llmq.go alias or the cross-package test seam that keeps it.
func TestEveryInternalExportHasACaller(t *testing.T) {
	for _, f := range uncalledExports(t, "repro/internal/", "../..", "../../perf") {
		t.Error(f)
	}
}

// TestCallerCheckFixture plants a module with one export nothing calls, one
// annotated export, one interface method and one called export: the check
// names the first, and only the first.
func TestCallerCheckFixture(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n\ngo 1.24\n")
	write("internal/a/a.go", `package a

// Called has a caller in main.
func Called() int { return Uncalled2() }

// Uncalled has none: only its own body names it.
func Uncalled() int { return Uncalled() }

// Uncalled2 is called by Called.
func Uncalled2() int { return 2 }

// Annotated has none either, but says why it stays.
//
//llmqlint:api kept for the fixture's reason
func Annotated() {}

// T's String satisfies fmt.Stringer.
type T struct{}

func (T) String() string { return "t" }
`)
	write("internal/a/a_test.go", `package a

import "testing"

func TestUncalled(t *testing.T) { _ = Uncalled() }
`)
	write("main.go", `package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() { fmt.Println(a.Called(), a.T{}) }
`)
	got := uncalledExports(t, "fixture/internal/", dir)
	if len(got) != 1 || !strings.HasPrefix(got[0], "internal/a/a.go:7: ") ||
		!strings.Contains(got[0], "fixture/internal/a.Uncalled ") {
		t.Fatalf("findings = %q, want one naming internal/a/a.go:7 fixture/internal/a.Uncalled", got)
	}
}

// uncalledExports loads the non-test packages of each module directory and
// returns one "file:line: message" per exported function or method of the
// first module whose package path starts with prefix and that no non-test
// file uses outside the function's own body.
func uncalledExports(t *testing.T, prefix string, modDirs ...string) []string {
	t.Helper()
	type decl struct {
		key, pos string
		method   *types.Func // nil for a function
	}
	var (
		decls  []decl
		used   = map[string]bool{}
		ifaces = map[string][]*types.Signature{} // interface methods by name
		seen   = map[*types.Package]bool{}
	)
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			addIfaceMethods(ifaces, p.Scope().Lookup(name).Type())
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	addIfaceMethods(ifaces, types.Universe.Lookup("error").Type())

	var root string
	for i, dir := range modDirs {
		l, err := loader.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.Prefetch("./...")
		pkgs, err := l.Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if root, err = filepath.Abs(dir); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pkgs {
			for _, terr := range p.TypeErrors {
				t.Errorf("%s does not type-check: %v", p.Path, terr)
			}
			addIfaces(p.Types)
			for _, tv := range p.Info.Types {
				if tv.IsType() {
					addIfaceMethods(ifaces, tv.Type)
				}
			}
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fd, isFunc := d.(*ast.FuncDecl)
					self := ""
					if isFunc {
						if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
							self = funcKey(fn)
							if i == 0 && fd.Name.IsExported() && strings.HasPrefix(p.Path, prefix) && !annotatedAPI(fd.Doc) {
								pos := p.Fset.Position(fd.Pos())
								rel, _ := filepath.Rel(root, pos.Filename)
								d := decl{key: self, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)}
								if fd.Recv != nil {
									d.method = fn
								}
								decls = append(decls, d)
							}
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := p.Info.Uses[id].(*types.Func); ok {
								if k := funcKey(fn); k != self {
									used[k] = true
								}
							}
						}
						return true
					})
				}
			}
		}
	}
	var out []string
	for _, d := range decls {
		if !used[d.key] && !satisfiesIface(ifaces, d.method) {
			out = append(out, fmt.Sprintf("%s: %s has no non-test caller; delete it, move it into a _test.go file, or mark it //llmqlint:api <reason>", d.pos, d.key))
		}
	}
	sort.Strings(out)
	return out
}

// funcKey names a function as package path + receiver type + name, the same
// whether its object came from source or from export data.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// satisfiesIface reports whether method m has the name and signature of
// some interface method. Signatures match when they are identical types, or
// when they print alike with full package paths: a type of the package being
// loaded from source is a different object from the same type read from
// export data by its importers.
func satisfiesIface(ifaces map[string][]*types.Signature, m *types.Func) bool {
	if m == nil {
		return false
	}
	sig := m.Type().(*types.Signature)
	for _, want := range ifaces[m.Name()] {
		if types.Identical(sig, want) || sigString(sig) == sigString(want) {
			return true
		}
	}
	return false
}

// sigString renders a signature's parameter and result types with full
// package paths and no names.
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// addIfaceMethods records the methods of t when it is an interface.
func addIfaceMethods(ifaces map[string][]*types.Signature, t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		ifaces[m.Name()] = append(ifaces[m.Name()], m.Type().(*types.Signature))
	}
}

// annotatedAPI reports whether a doc comment carries //llmqlint:api with a
// reason.
func annotatedAPI(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if reason, ok := strings.CutPrefix(c.Text, "//llmqlint:api"); ok && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}
