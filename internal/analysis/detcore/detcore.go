// Package detcore enforces determinism in the analysis core. The repo's
// probe cache keys feasibility verdicts by a fingerprint of the problem, CI
// gates compare reports byte-for-byte, and the paper's algorithm itself is
// deterministic — so the core packages (sim, minimize, capacity, exact,
// probecache, ratio) must not let wall-clock time, unseeded randomness, or
// map iteration order leak into results.
//
// Findings, in non-test files of the core packages:
//
//   - time.Now / time.Since / time.Until calls. A wall-clock budget reaches
//     the core as a context deadline, whose timer the context package
//     owns; core code polls ctx.Err() and never reads a clock.
//   - calls to math/rand or math/rand/v2 package-level functions (the shared,
//     unseeded generator). Using an explicitly seeded *rand.Rand is allowed —
//     determinism comes from the caller-owned seed.
//   - range-over-map loops that build up a slice (append to it or write to
//     it by index) when the slice is not subsequently passed to a
//     sort.*/slices.* call in the same function: the slice order would be
//     randomized per process. Sorting afterwards launders the order, so
//     collect-then-sort stays idiomatic.
//
// Genuinely order-insensitive map walks (draining, summing, counting) need
// no waiver: they do not append, so they are not flagged.
package detcore

import (
	"go/ast"
	"go/types"

	"vrdfcap/internal/analysis"
)

// Analyzer is the detcore analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detcore",
	Doc:  "forbid time.Now, unseeded math/rand, and map-iteration-order-dependent results in the deterministic core packages",
	Run:  run,
}

// detPackages are the packages whose outputs must be reproducible.
var detPackages = []string{"sim", "minimize", "capacity", "exact", "probecache", "ratio"}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PkgIs(pass.Pkg.Path(), detPackages...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkg.Imported().Path() {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(), "time.%s in deterministic core package %s: clocks belong in internal/budget, pass a budget instead", sel.Sel.Name, pass.Pkg.Name())
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(call.Pos(), "package-level rand.%s in deterministic core package %s: use an explicitly seeded *rand.Rand owned by the caller", sel.Sel.Name, pass.Pkg.Name())
			}
			return true
		})
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapOrder(pass, fn)
		}
	}
	return nil, nil
}

// checkMapOrder flags range-over-map loops that accumulate into a slice
// which is never sorted afterwards in the same function.
func checkMapOrder(pass *analysis.Pass, fn *ast.FuncDecl) {
	type accum struct {
		obj  types.Object // the slice being built
		pos  ast.Node     // the range statement
		name string
	}
	var accums []accum

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		// Look for `dst = append(dst, ...)` or `dst[i] = ...` in the body
		// where dst has slice type.
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if obj, name, ok := sliceTarget(pass, lhs); ok {
					accums = append(accums, accum{obj, rng, name})
				}
			}
			return true
		})
		return true
	})

	for _, a := range accums {
		if sortedLater(pass, fn, a.obj) {
			continue
		}
		pass.Reportf(a.pos.Pos(), "range over map builds slice %s whose order depends on map iteration: sort it afterwards or iterate over sorted keys", a.name)
	}
}

// sliceTarget reports whether lhs writes into a slice-typed variable,
// either by plain assignment target `dst` (for dst = append(dst, ...)) or
// by index `dst[i]`.
func sliceTarget(pass *analysis.Pass, lhs ast.Expr) (types.Object, string, bool) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Defs[lhs]
		}
		if obj == nil {
			return nil, "", false
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); ok {
			return obj, lhs.Name, true
		}
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return nil, "", false
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				return obj, id.Name, true
			}
		}
	}
	return nil, "", false
}

// sortedLater reports whether obj is passed to a sort.* or slices.* call
// anywhere in the function after (or before — order within a function is
// not tracked, the presence of a sort is the signal) the accumulation.
func sortedLater(pass *analysis.Pass, fn *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pid, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.Uses[pid].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkg.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
