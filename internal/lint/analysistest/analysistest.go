// Package analysistest runs one analyzer over a fixture package and checks
// its diagnostics against `// want "regexp"` comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract closely enough that
// fixtures read identically:
//
//	func bad() {
//		ctx := context.Background() // want `context\.Background`
//		_ = ctx
//	}
//
// Every line carrying a want comment must receive at least one matching
// diagnostic, every diagnostic must land on a line whose want pattern
// matches it, and mismatches in either direction fail the test.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// wantRe matches a want comment and captures its quoted pattern: either a
// backquoted or a double-quoted regexp, as in x/tools fixtures.
var wantRe = regexp.MustCompile("//\\s*want\\s+(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// Run loads testdata/src/<pkg> beneath dir and applies a to it.
//
//llmqlint:api the harness of every analyzer's fixture test
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	fixture := filepath.Join(dir, "src", pkg)
	l, err := loader.New(fixture)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	p, err := l.LoadDir(fixture, pkg)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	if p == nil {
		t.Fatalf("analysistest: no Go files in %s", fixture)
	}
	for _, terr := range p.TypeErrors {
		t.Errorf("analysistest: fixture does not type-check: %v", terr)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}

	wants := collectWants(t, p)
	matched := make(map[string]bool)
	for _, d := range diags {
		pos := p.Fset.Position(d.Pos)
		key := lineKey(pos.Filename, pos.Line)
		re, ok := wants[key]
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", format(pos), d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", format(pos), d.Message, re)
			continue
		}
		matched[key] = true
	}
	for key, re := range wants {
		if !matched[key] {
			t.Errorf("%s: want %q matched no diagnostic", key, re)
		}
	}
}

// collectWants scans the fixture's comments for want patterns, keyed by the
// line they annotate.
func collectWants(t *testing.T, p *loader.Package) map[string]*regexp.Regexp {
	t.Helper()
	wants := make(map[string]*regexp.Regexp)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1]
				if pat[0] == '`' {
					pat = strings.Trim(pat, "`")
				} else {
					pat = strings.ReplaceAll(strings.Trim(pat, `"`), `\"`, `"`)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("analysistest: bad want pattern %q: %v", pat, err)
				}
				pos := p.Fset.Position(c.Pos())
				wants[lineKey(pos.Filename, pos.Line)] = re
			}
		}
	}
	return wants
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", filepath.Base(file), line)
}

func format(pos token.Position) string {
	return lineKey(pos.Filename, pos.Line)
}
