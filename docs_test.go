package vrdfcap

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeArchitectureListsInternalPackages pins README's architecture
// map to the tree: every directory under internal/ has a line in it, and
// every package the map names exists.
func TestReadmeArchitectureListsInternalPackages(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "## Architecture")
	if start < 0 {
		t.Fatal("README.md has no ## Architecture section")
	}
	block := text[start:]
	open := strings.Index(block, "```\n")
	if open < 0 {
		t.Fatal("architecture section has no code block")
	}
	block = block[open+4:]
	if end := strings.Index(block, "```"); end >= 0 {
		block = block[:end]
	}
	// Package lines sit under "internal/", indented by exactly two
	// spaces; description continuation lines are indented further.
	mapped := map[string]bool{}
	inInternal := false
	for _, line := range strings.Split(block, "\n") {
		if line == "internal/" {
			inInternal = true
			continue
		}
		if !inInternal || !strings.HasPrefix(line, "  ") || strings.HasPrefix(line, "   ") {
			continue
		}
		if fields := strings.Fields(line); len(fields) > 0 {
			mapped[fields[0]] = true
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		if !mapped[e.Name()] {
			t.Errorf("internal/%s is missing from README's architecture map", e.Name())
		}
	}
	for name := range mapped {
		if !dirs[name] {
			t.Errorf("README's architecture map names internal/%s, which does not exist", name)
		}
	}
}

// TestDocTablesCiteExistingTests fails when a table row of EXPERIMENTS.md or
// DESIGN.md cites a Test*, Benchmark* or Fuzz* function that no _test.go
// file of this module defines, so a deleted or renamed test cannot leave a
// stale row behind.
func TestDocTablesCiteExistingTests(t *testing.T) {
	funcDef := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// testdata and nested modules are outside this module.
			_, modErr := os.Stat(filepath.Join(path, "go.mod"))
			if path != "." && (d.Name() == "testdata" || modErr == nil) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDef.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "|") {
				continue
			}
			for _, name := range cited.FindAllString(line, -1) {
				if !defined[name] {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}
}
