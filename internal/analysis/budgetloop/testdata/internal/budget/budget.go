// Package budget is a stub of vrdfcap/internal/budget for analyzer
// fixtures: the budgetloop analyzer matches the package by final
// import-path element.
package budget

// Classify is a package-level helper, standing in for budget.* calls.
func Classify(err error) error { return err }
