// Package unitchecker implements the `go vet -vettool` driver protocol for
// the vrdfvet suite, mirroring golang.org/x/tools/go/analysis/unitchecker
// on the standard library alone.
//
// The go command drives a vet tool in three steps:
//
//  1. `tool -flags` — the tool prints a JSON description of the flags it
//     accepts, so `go vet` can split its own command line into tool flags
//     and package patterns.
//  2. `tool -V=full` — the tool prints a line identifying its exact build
//     ("<path> version devel comments-go-here buildID=<hash>"); the output
//     is folded into the build cache key so analysis results are reused
//     across runs and invalidated when the tool changes.
//  3. `tool [flags] <dir>/vet.cfg` — once per package unit. The JSON config
//     names the unit's source files and maps every import to the compiled
//     export data the gc importer needs. The tool type-checks the unit, runs
//     its analyzers, prints findings to stderr as "file:line:col: message",
//     writes the (for vrdfvet, empty) facts file named by VetxOutput, and
//     exits non-zero iff it found anything.
//
// Dependency units arrive with VetxOnly set: only their facts are wanted.
// The vrdfvet analyzers are all strictly intra-package, so those units are
// answered immediately with an empty facts file and no analysis at all —
// which is also why `go vet -vettool` over the whole repo stays fast: the
// standard library is never re-analyzed.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"vrdfcap/internal/analysis"
	"vrdfcap/internal/analysis/load"
)

// Config is the JSON schema of the go command's vet.cfg, as written by
// cmd/go/internal/work (vetConfig). Unknown fields are ignored.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetxContent is the placeholder facts payload. vrdfvet exports no facts
// (every analyzer is intra-package), but the protocol requires the file;
// its content only needs to be stable.
const vetxContent = "vrdfvet: no facts\n"

// PrintVersion implements the -V=full handshake.
func PrintVersion() {
	prog, err := os.Executable()
	if err != nil {
		prog = os.Args[0]
	}
	h := sha256.New()
	if f, err := os.Open(prog); err == nil {
		io.Copy(h, f) //nolint:errcheck // a short hash only weakens caching
		_ = f.Close() // read-only
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", prog, h.Sum(nil)[:12])
}

// PrintFlags implements the -flags handshake for the given analyzers: each
// is a boolean enable flag, matching the x/tools convention.
func PrintFlags(analyzers []*analysis.Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{{Name: "V", Bool: false, Usage: "print version and exit"}}
	for _, a := range analyzers {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: strings.SplitN(a.Doc, "\n", 2)[0]})
	}
	data, err := json.Marshal(flags)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// Run processes one vet.cfg unit and exits: 0 on a clean unit, 1 on
// findings, 2 on an internal failure.
func Run(cfgFile string, analyzers []*analysis.Analyzer) {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cfg.VetxOnly {
		writeVetx(cfg)
		os.Exit(0)
	}
	diags, err := analyze(cfg, analyzers)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(cfg)
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	writeVetx(cfg)
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(1)
	}
	os.Exit(0)
}

func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("vrdfvet: reading vet config: %v", err)
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("vrdfvet: parsing %s: %v", path, err)
	}
	return cfg, nil
}

func writeVetx(cfg *Config) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, []byte(vetxContent), 0o666); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// analyze type-checks the unit and runs every analyzer over it, returning
// rendered diagnostics sorted by position.
func analyze(cfg *Config, analyzers []*analysis.Analyzer) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := load.Check(cfg.ImportPath, fset, files, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	if err != nil {
		return nil, err
	}

	type posDiag struct {
		pos  token.Position
		text string
	}
	var out []posDiag
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			p := fset.Position(d.Pos)
			out = append(out, posDiag{p, fmt.Sprintf("%s: %s [%s]", p, d.Message, name)})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("vrdfvet: analyzer %s on %s: %v", a.Name, cfg.ImportPath, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	texts := make([]string, len(out))
	for i, d := range out {
		texts[i] = d.text
	}
	return texts, nil
}
