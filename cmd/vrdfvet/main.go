// Command vrdfvet is the repo's domain-invariant checker: a vet tool that
// enforces budgeted search loops, centralized ratio arithmetic, and
// determinism of the core packages. See internal/analysis/README.md for the
// analyzer catalogue and the annotation grammar.
//
// It speaks the `go vet -vettool` protocol, so the canonical invocation is
//
//	go build -o "$(go env GOPATH)/bin/vrdfvet" ./cmd/vrdfvet
//	go vet -vettool="$(go env GOPATH)/bin/vrdfvet" ./...
//
// As a convenience, running vrdfvet directly with package patterns
// (`vrdfvet ./...`) re-invokes `go vet -vettool=<itself>` on them, which
// gets correct per-package type information and build caching for free.
//
// Individual analyzers can be selected the same way as with go vet:
// `vrdfvet -budgetloop ./...` runs only that analyzer.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"vrdfcap/internal/analysis"
	"vrdfcap/internal/analysis/suite"
	"vrdfcap/internal/analysis/unitchecker"
)

func main() {
	analyzers := suite.All()

	// The go command's handshakes come before flag parsing.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			unitchecker.PrintVersion()
			return
		case "-flags", "--flags":
			unitchecker.PrintFlags(analyzers)
			return
		}
	}

	fs := flag.NewFlagSet("vrdfvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: vrdfvet [-analyzer...] <packages|vet.cfg>\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  -%s\n        %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	fs.Bool("V", false, "print version and exit")
	selected := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, strings.SplitN(a.Doc, "\n", 2)[0])
	}
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	// An explicit selection narrows the suite; no selection means all.
	var run []*analysis.Analyzer
	for _, a := range analyzers {
		if *selected[a.Name] {
			run = append(run, a)
		}
	}
	if len(run) == 0 {
		run = analyzers
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		unitchecker.Run(args[0], run)
		return
	}

	// Standalone mode: delegate to `go vet -vettool=<self>` so the go
	// command does package loading, export data and caching.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vrdfvet: %v\n", err)
		os.Exit(2)
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	for _, a := range run {
		if len(run) != len(analyzers) {
			vetArgs = append(vetArgs, "-"+a.Name)
		}
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	vetArgs = append(vetArgs, args...)
	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "vrdfvet: %v\n", err)
		os.Exit(2)
	}
}
