package vrdfcap

import (
	"os"
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
