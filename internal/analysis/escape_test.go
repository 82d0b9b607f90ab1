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

// noallocMarker is the comment that asserts a function's body does not
// allocate; //vrdf:allocok(reason) waives one line of such a body.
const noallocMarker = "//vrdf:noalloc"

// funcRange is the line span of one //vrdf:noalloc function.
type funcRange struct {
	name       string
	start, end int
}

// annotations is what one file's //vrdf:noalloc and //vrdf:allocok
// comments say, and what is wrong with them.
type annotations struct {
	spans   []funcRange             // bodies of annotated functions
	waivers map[int]analysis.Waiver // allocok waivers, by line
	faults  []string                // broken rules, one line each
}

// scanAnnotations reads the allocation annotations of one parsed file and
// holds them to three rules. A //vrdf:noalloc marker must sit in the doc
// comment of a function declaration, or it would check nothing. A
// //vrdf:allocok waiver must give its reason. An append in an annotated
// body needs a waiver: the compiler reports no escape when an append
// grows its slice, so an append into storage that is never truncated
// would allocate on ever fewer calls, unseen by escape analysis and
// rounded away by AllocsPerRun.
func scanAnnotations(fset *token.FileSet, file *ast.File) annotations {
	a := annotations{waivers: analysis.Waivers(fset, file, "allocok")}
	fault := func(pos token.Pos, msg string) {
		a.faults = append(a.faults, fset.Position(pos).String()+": "+msg)
	}
	attached := make(map[token.Pos]bool)
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		marked := false
		for _, c := range fn.Doc.List {
			if isNoallocMarker(c.Text) {
				attached[c.Pos()] = true
				marked = true
			}
		}
		if !marked || fn.Body == nil {
			continue
		}
		a.spans = append(a.spans, funcRange{
			name:  fn.Name.Name,
			start: fset.Position(fn.Body.Pos()).Line,
			end:   fset.Position(fn.Body.End()).Line,
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, waived := analysis.Waived(fset, a.waivers, call.Pos()); !waived {
					fault(call.Pos(), "append in "+noallocMarker+" function "+fn.Name.Name+" may grow its slice; add a //vrdf:allocok(reason) waiver")
				}
			}
			return true
		})
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if isNoallocMarker(c.Text) && !attached[c.Pos()] {
				fault(c.Pos(), "misplaced "+noallocMarker+": the marker must be in the doc comment of a function declaration")
			}
		}
	}
	for _, w := range a.waivers {
		if w.Reason == "" {
			fault(w.Pos, "vrdf:allocok waiver needs a reason")
		}
	}
	sort.Strings(a.faults)
	return a
}

// isNoallocMarker reports whether a comment is the //vrdf:noalloc marker,
// alone or followed by commentary after a space.
func isNoallocMarker(text string) bool {
	t := strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(t, noallocMarker)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// TestAnnotationRules pins the rules scanAnnotations holds the tree to,
// on in-memory sources.
func TestAnnotationRules(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		spans  int
		faults []string
	}{
		{
			name: "attached",
			src: `package p

// f is hot.
//
//vrdf:noalloc
func f(s []int) []int {
	return append(s, 1) //vrdf:allocok(appends into retained capacity)
}
`,
			spans: 1,
		},
		{
			name: "misplaced on a variable",
			src: `package p

//vrdf:noalloc
var v = 1
`,
			faults: []string{"p.go:3:1: misplaced //vrdf:noalloc"},
		},
		{
			name: "misplaced inside a body",
			src: `package p

func f() int {
	//vrdf:noalloc
	return 1
}
`,
			faults: []string{"p.go:4:2: misplaced //vrdf:noalloc"},
		},
		{
			name: "waiver without a reason",
			src: `package p

//vrdf:noalloc
func f(s []int) []int {
	return append(s, 1) //vrdf:allocok()
}
`,
			spans:  1,
			faults: []string{"p.go:5:22: vrdf:allocok waiver needs a reason"},
		},
		{
			name: "append without a waiver",
			src: `package p

var log []int

//vrdf:noalloc
func f(i int) {
	log = append(log, i)
}
`,
			spans:  1,
			faults: []string{"p.go:7:8: append in //vrdf:noalloc function f may grow its slice"},
		},
		{
			name: "blank reason",
			src: `package p

func f(s []int) []int {
	//vrdf:allocok(   )
	return append(s, 1)
}
`,
			faults: []string{"p.go:4:2: vrdf:allocok waiver needs a reason"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "p.go", tc.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			a := scanAnnotations(fset, file)
			if len(a.spans) != tc.spans {
				t.Errorf("%d annotated functions, want %d", len(a.spans), tc.spans)
			}
			if len(a.faults) != len(tc.faults) {
				t.Fatalf("faults %q, want %d matching %q", a.faults, len(tc.faults), tc.faults)
			}
			for i, want := range tc.faults {
				if !strings.HasPrefix(a.faults[i], want) {
					t.Errorf("fault %q, want prefix %q", a.faults[i], want)
				}
			}
		})
	}
}

// escapeRE matches the compiler's escape diagnostics:
//
//	internal/sim/engine.go:414:12: q escapes to heap
//	internal/sim/snapshot.go:100:6: moved to heap: sb
var escapeRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (?:moved to heap|.*escapes to heap)`)

// TestNoAllocMatchesEscapeAnalysis cross-checks the //vrdf:noalloc
// annotations against the compiler: every "escapes to heap" / "moved to
// heap" line the gc escape analysis reports inside an annotated function
// must carry a //vrdf:allocok waiver (on the line or the line above). It
// also holds the annotations to scanAnnotations' rules: a marker outside a
// function's doc comment, a waiver without a reason, or an unwaived append
// in an annotated body fails. The annotations, the waivers and the
// compiler must agree, so none of the three can drift alone; the allocs/op
// and B/op gates measure the rest.
func TestNoAllocMatchesEscapeAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping compiler escape analysis")
	}
	root := repoRoot(t)

	fset := token.NewFileSet()
	files := make(map[string]annotations) // repo-relative file -> its annotated functions
	pkgDirs := make(map[string]bool)      // repo-relative package dirs to compile
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
		if !strings.Contains(string(src), noallocMarker) && !strings.Contains(string(src), "//vrdf:allocok") {
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
		a := scanAnnotations(fset, file)
		for _, f := range a.faults {
			t.Error(f)
		}
		if len(a.spans) > 0 {
			files[rel] = a
			pkgDirs[filepath.Dir(rel)] = true
			annotated += len(a.spans)
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
		a, ok := files[file]
		if !ok {
			continue
		}
		for _, span := range a.spans {
			if ln < span.start || ln > span.end {
				continue
			}
			checked++
			if _, onLine := a.waivers[ln]; onLine {
				continue
			}
			if _, lineAbove := a.waivers[ln-1]; lineAbove {
				continue
			}
			t.Errorf("%s:%d: compiler reports a heap allocation inside //vrdf:noalloc function %s with no //vrdf:allocok waiver: %s",
				file, ln, span.name, strings.TrimSpace(line))
		}
	}
	if checked == 0 && t.Failed() == false {
		t.Logf("escape analysis reported no heap allocations inside the %d annotated functions", annotated)
	}
}
