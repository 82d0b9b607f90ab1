// Package budgetloop checks that the search loops of the analysis core
// consult a cancellation budget. Every search path takes a context, the
// one carrier of cancellation and wall-clock budgets, precisely because a
// sizing service must be able to walk away from a 50M-event simulation;
// this analyzer keeps new loops from quietly opting out.
//
// Scope: non-test files of the packages minimize, capacity, exact, sim
// and serve (matched by final import-path element) — serve
// joined when the service grew accept/drain loops that must stop with the
// server's base context. Two loop shapes are budget-relevant:
//
//   - condition-only and infinite `for` statements (`for {`, `for lo < hi {`)
//     — the shape of every event loop, binary search and coordinate descent
//     in the core, whose trip counts are data-dependent;
//   - `range` loops whose body directly calls something named like a
//     simulation probe (Run, Verify, Certify, Probe, Simulate) — the shape
//     of "for each period, simulate".
//
// A relevant loop passes if its body (or a local closure it calls — the
// core's probe/eval closures hide the budget check one level down)
// contains a budget touch: a method call on a context.Context, a call into
// package budget, passing a Context to a callee, or a select with a Done
// channel. Loops that are genuinely
// bounded and cheap carry a //vrdf:unbudgeted(reason) waiver on the line
// above; a waiver with an empty reason is itself a finding.
package budgetloop

import (
	"go/ast"
	"go/types"
	"regexp"

	"vrdfcap/internal/analysis"
)

// Analyzer is the budgetloop analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "budgetloop",
	Doc:  "check that unbounded search loops in minimize/capacity/exact/sim/serve consult a budget or context (or carry a //vrdf:unbudgeted(reason) waiver)",
	Run:  run,
}

// packages whose loops are checked.
var corePackages = []string{"minimize", "capacity", "exact", "sim", "serve"}

// probeCall matches direct callee names that imply per-iteration
// simulation work inside a range loop.
var probeCall = regexp.MustCompile(`(?i)^(run|verify|certify|probe|simulate)$`)

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PkgIs(pass.Pkg.Path(), corePackages...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		waivers := analysis.Waivers(pass.Fset, file, "unbudgeted")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			closures := localClosures(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				var relevant bool
				switch n := n.(type) {
				case *ast.ForStmt:
					body = n.Body
					// Three-clause loops are bounded by construction;
					// condition-only and infinite loops are the search shapes.
					relevant = n.Init == nil && n.Post == nil
				case *ast.RangeStmt:
					body = n.Body
					relevant = callsProbe(n.Body)
				default:
					return true
				}
				if !relevant {
					return true
				}
				if hasBudgetCheck(pass, body, closures, 1) {
					return true
				}
				if w, ok := analysis.Waived(pass.Fset, waivers, n.Pos()); ok {
					if w.Reason == "" {
						pass.Reportf(w.Pos, "vrdf:unbudgeted waiver needs a reason")
					}
					return true
				}
				pass.Reportf(n.Pos(), "unbudgeted loop: the body never consults a budget or context (add a budget/ctx check or a //vrdf:unbudgeted(reason) waiver)")
				return true
			})
		}
	}
	return nil, nil
}

// localClosures maps local variables bound to function literals
// (`probe := func(...) ... {`) so hasBudgetCheck can look one level into
// the core's probe/eval helpers.
func localClosures(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			fl, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				out[obj] = fl
			}
		}
		return true
	})
	return out
}

// callsProbe reports whether the loop body directly calls a probe-shaped
// function or method.
func callsProbe(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if probeCall.MatchString(fun.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if probeCall.MatchString(fun.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasBudgetCheck reports whether the block contains a budget touch,
// following calls to local closures up to depth levels deep.
func hasBudgetCheck(pass *analysis.Pass, body *ast.BlockStmt, closures map[types.Object]*ast.FuncLit, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A method on a Context receiver, or any call into package budget.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if isBudgetish(pass, sel.X) {
				found = true
				return false
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && analysis.PkgIs(pkg.Imported().Path(), "budget") {
					found = true
					return false
				}
			}
		}
		// Delegation: a Context handed to the callee.
		for _, a := range call.Args {
			if isBudgetish(pass, a) {
				found = true
				return false
			}
		}
		// One level into local probe/eval closures.
		if depth > 0 {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					if fl, ok := closures[obj]; ok && hasBudgetCheck(pass, fl.Body, closures, depth-1) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// isBudgetish reports whether the expression is a context.Context.
func isBudgetish(pass *analysis.Pass, x ast.Expr) bool {
	named, ok := pass.TypesInfo.TypeOf(x).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
