// Package suite enumerates the vrdfvet analyzers in their canonical order,
// shared by the cmd/vrdfvet driver and the self-application test so the two
// can never disagree about what "the suite" is.
package suite

import (
	"vrdfcap/internal/analysis"
	"vrdfcap/internal/analysis/budgetloop"
	"vrdfcap/internal/analysis/detcore"
	"vrdfcap/internal/analysis/ratioarith"
)

// All returns the full vrdfvet suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		budgetloop.Analyzer,
		detcore.Analyzer,
		ratioarith.Analyzer,
	}
}
