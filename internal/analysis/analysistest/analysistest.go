// Package analysistest runs a vrdfvet analyzer over fixture packages and
// checks its diagnostics against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture tree is a self-contained module (its own go.mod, conventionally
// `module fixtures`) living under the analyzer's testdata directory, which
// the surrounding build ignores. Fixture packages reuse the real package
// base names the analyzers key on — a stub fixtures/internal/sim stands in
// for vrdfcap/internal/sim — because the analyzers deliberately match
// packages by final import-path element.
//
// Expectations are comments of the form
//
//	m.Run() // want `second Run`
//	x() // want `first finding` `second finding`
//
// Each backquoted or double-quoted string is a regexp that must match a
// diagnostic reported on that line, and every diagnostic must be matched by
// an expectation, so fixtures pin allowed cases (no comment) as hard as
// flagged ones.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vrdfcap/internal/analysis"
	"vrdfcap/internal/analysis/load"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+((?:[`\"][^`\"]*[`\"]\\s*)+)")
var expectRE = regexp.MustCompile("[`\"]([^`\"]*)[`\"]")

// Run loads the fixture module rooted at dir, analyzes the packages
// matching patterns (default ./...) with a, and reports mismatches between
// diagnostics and // want expectations through t.
func Run(t *testing.T, a *analysis.Analyzer, dir string, patterns ...string) {
	t.Helper()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Dir(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s match %v", dir, patterns)
	}
	for _, pkg := range pkgs {
		runPackage(t, a, pkg)
	}
}

type key struct {
	file string
	line int
}

func runPackage(t *testing.T, a *analysis.Analyzer, pkg *load.Package) {
	t.Helper()
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s failed: %v", pkg.ImportPath, a.Name, err)
	}

	// Collect expectations per (file, line).
	want := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, em := range expectRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(em[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, em[1], err)
					}
					want[k] = append(want[k], re)
				}
			}
		}
	}

	// Match diagnostics against expectations.
	unmatched := make(map[key][]*regexp.Regexp)
	for k, v := range want {
		unmatched[k] = append([]*regexp.Regexp(nil), v...)
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		res := unmatched[k]
		hit := -1
		for i, re := range res {
			if re.MatchString(d.Message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		unmatched[k] = append(res[:hit], res[hit+1:]...)
	}
	var missing []string
	for k, res := range unmatched {
		for _, re := range res {
			missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}

// Position is a convenience for tests that assert on raw positions.
func Position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	short := p.Filename
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	return fmt.Sprintf("%s:%d", short, p.Line)
}
