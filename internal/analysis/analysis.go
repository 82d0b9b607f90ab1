// Package analysis is a self-contained, stdlib-only reimplementation of the
// slice of golang.org/x/tools/go/analysis that the vrdfvet suite needs:
// Analyzer/Pass/Diagnostic types, plus the shared helpers (test-file
// detection, //vrdf: waiver-comment parsing, package-scope matching) used by
// the three domain analyzers under internal/analysis/*.
//
// The repo deliberately has no external dependencies (go.mod carries no
// requires), so the x/tools module is not available; the API here mirrors it
// closely enough that the analyzers would port to the real framework by
// changing imports. The drivers live in internal/analysis/unitchecker (the
// `go vet -vettool` JSON protocol), internal/analysis/load (a
// `go list -export`-based package loader for standalone and test use) and
// internal/analysis/analysistest (the `// want` fixture runner).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer is one static check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and as its command-line
	// enable flag (e.g. `vrdfvet -budgetloop`).
	Name string
	// Doc is the analyzer's help text; the first line is the summary.
	Doc string
	// Run performs the analysis. The result value is unused by the vrdfvet
	// drivers (the x/tools API keeps it for inter-analyzer plumbing).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass is one (analyzer, package) unit of work, carrying the syntax and
// type information of exactly one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// IsTestFile reports whether pos lies in a _test.go file. Every vrdfvet
// analyzer skips test files: tests legitimately consult wall-clock
// deadlines and drive the core in loops whose bound is the test itself.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PathBase returns the last slash-separated element of an import path.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// PkgIs reports whether the package path is, or ends in, one of the given
// base names. Matching by final path element keeps the analyzers testable:
// the real package vrdfcap/internal/sim and a fixture module's
// fixtures/internal/sim both satisfy PkgIs(path, "sim").
func PkgIs(path string, bases ...string) bool {
	b := PathBase(path)
	for _, want := range bases {
		if b == want {
			return true
		}
	}
	return false
}

// waiverRE matches the //vrdf:<name>(<reason>) waiver grammar. The reason is
// mandatory: a waiver without one is itself reported by the analyzers.
var waiverRE = regexp.MustCompile(`//\s*vrdf:([a-z]+)\(([^)]*)\)`)

// Waiver is one //vrdf:<name>(reason) comment.
type Waiver struct {
	Name   string
	Reason string
	Pos    token.Pos
}

// Waivers collects every //vrdf:name(reason) comment in the file, keyed by
// the line it is written on. A waiver suppresses findings on its own line
// and, when written as a standalone comment line, on the line immediately
// below — the same placement contract as //nolint.
func Waivers(fset *token.FileSet, file *ast.File, name string) map[int]Waiver {
	out := make(map[int]Waiver)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := waiverRE.FindStringSubmatch(c.Text)
			if m == nil || m[1] != name {
				continue
			}
			out[fset.Position(c.Pos()).Line] = Waiver{Name: m[1], Reason: strings.TrimSpace(m[2]), Pos: c.Pos()}
		}
	}
	return out
}

// Waived looks up a waiver covering the node that starts at pos: one on the
// same line or on the line directly above.
func Waived(fset *token.FileSet, waivers map[int]Waiver, pos token.Pos) (Waiver, bool) {
	line := fset.Position(pos).Line
	if w, ok := waivers[line]; ok {
		return w, true
	}
	if w, ok := waivers[line-1]; ok {
		return w, true
	}
	return Waiver{}, false
}
