package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vrdfcap/internal/analysis"
)

// funcRange is the line span of one //vrdf:noalloc function.
type funcRange struct {
	name       string
	start, end int
}

// escapeRE matches the compiler's escape diagnostics:
//
//	internal/sim/engine.go:414:12: q escapes to heap
//	internal/sim/snapshot.go:100:6: moved to heap: sb
var escapeRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (?:moved to heap|.*escapes to heap)`)

// TestNoAllocMatchesEscapeAnalysis cross-checks the //vrdf:noalloc
// annotations against the compiler: every "escapes to heap" / "moved to
// heap" line the gc escape analysis reports inside an annotated function
// must carry a //vrdf:allocok waiver (on the line or the line above). The
// noalloc analyzer checks the same contract syntactically; this test makes
// the annotations, the waivers and the compiler agree, so none of the three
// can drift alone.
func TestNoAllocMatchesEscapeAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping compiler escape analysis")
	}
	root := repoRoot(t)

	fset := token.NewFileSet()
	ranges := make(map[string][]funcRange)              // repo-relative file -> annotated spans
	waivers := make(map[string]map[int]analysis.Waiver) // repo-relative file -> allocok waivers
	pkgDirs := make(map[string]bool)                    // repo-relative package dirs to compile
	annotated := 0

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !strings.Contains(string(src), "//vrdf:noalloc") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Body == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), "//vrdf:noalloc") {
					ranges[rel] = append(ranges[rel], funcRange{
						name:  fn.Name.Name,
						start: fset.Position(fn.Body.Pos()).Line,
						end:   fset.Position(fn.Body.End()).Line,
					})
					annotated++
					break
				}
			}
		}
		if len(ranges[rel]) > 0 {
			waivers[rel] = analysis.Waivers(fset, file, "allocok")
			pkgDirs[filepath.Dir(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if annotated == 0 {
		t.Fatal("no //vrdf:noalloc functions found; the annotations have been removed without removing this test")
	}

	// One compile with escape diagnostics over every annotated package.
	// -count=1-style freshness is irrelevant: go build always re-runs the
	// compiler when -gcflags disables the build cache's silent reuse path
	// for diagnostics.
	dirs := make([]string, 0, len(pkgDirs))
	for d := range pkgDirs {
		dirs = append(dirs, "./"+filepath.ToSlash(d))
	}
	sort.Strings(dirs)
	args := append([]string{"build", "-gcflags=-m"}, dirs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, _ := cmd.CombinedOutput() // -m writes to stderr; a failed build surfaces below

	checked := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := filepath.ToSlash(m[1])
		ln, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		spans, ok := ranges[file]
		if !ok {
			continue
		}
		for _, span := range spans {
			if ln < span.start || ln > span.end {
				continue
			}
			checked++
			if w := waivers[file]; w != nil {
				if _, onLine := w[ln]; onLine {
					continue
				}
				if _, lineAbove := w[ln-1]; lineAbove {
					continue
				}
			}
			t.Errorf("%s:%d: compiler reports a heap allocation inside //vrdf:noalloc function %s with no //vrdf:allocok waiver: %s",
				file, ln, span.name, strings.TrimSpace(line))
		}
	}
	if checked == 0 && t.Failed() == false {
		t.Logf("escape analysis reported no heap allocations inside the %d annotated functions", annotated)
	}
}
