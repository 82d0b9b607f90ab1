package mix

import "testing"

// TestSplitMix64KnownAnswers pins the canonical SplitMix64 outputs: the
// generator seeded with 0 emits SplitMix64(0) then SplitMix64(γ), where γ
// is its 0x9e3779b97f4a7c15 increment. Every seeded schedule in the tree
// depends on these exact bits.
func TestSplitMix64KnownAnswers(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
	} {
		if got := SplitMix64(c.in); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
