package minimize

import (
	"os"
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphio"
)

// TestFingerprintPinned pins the minimisation fingerprint of the sized §5
// MP3 document. Verdict stores in -cache-dir directories are keyed by it,
// so a change to its bytes orphans every persisted frontier.
func TestFingerprintPinned(t *testing.T) {
	data, err := os.ReadFile("../../testdata/mp3.txt")
	if err != nil {
		t.Fatal(err)
	}
	g, c, err := graphio.DecodeAny(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := capacity.Compute(g, *c, capacity.PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		t.Fatal(err)
	}
	const want = "1de0a28af002015f5dfebd4f0c6da71f3b00c7fd6570826ab5d6eecc24c42483"
	if got := Fingerprint(sized, *c, 2205, "uniform:seed=1", 0); got != want {
		t.Fatalf("Fingerprint = %s, want %s", got, want)
	}
}
