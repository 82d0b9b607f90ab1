// Package machinereuse statically enforces the sim.Machine reuse protocol
// Compile → Run → Reset → Run: Machine.Run must not be reachable twice on
// the same receiver without an intervening Reset — including the second
// iteration of a loop whose body Runs but never resets.
//
// The engine rejects a second Run at run time; this analyzer moves the
// failure to vet time. The analysis is a conservative intra-procedural
// abstract interpretation over the AST: branch arms are analyzed separately
// and joined (so `if a { m.Run() } else { m.Run() }` is clean), loop bodies
// are analyzed twice so state flowing around the back edge is seen, and a
// machine that escapes into a call or closure falls back to "unknown",
// which never reports. Receivers are tracked while they are plain
// identifiers or unassigned selector chains (m, w.machine, pool.m).
package machinereuse

import (
	"go/ast"
	"go/token"
	"go/types"

	"vrdfcap/internal/analysis"
)

// Analyzer is the machinereuse analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "machinereuse",
	Doc:  "check that sim.Machine runs are separated by resets",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok {
				if fn.Body != nil {
					analyzeFunc(pass, fn.Body)
				}
				return false // analyzeFunc descends into nested FuncLits itself
			}
			return true
		})
	}
	return nil, nil
}

// mstate is the abstract state of one tracked machine.
type mstate struct {
	ran     bool // Run since the last reset
	unknown bool // escaped; never report
}

// interp is the per-function abstract interpreter.
type interp struct {
	pass     *analysis.Pass
	reported map[token.Pos]bool
}

type env map[string]*mstate

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		c := *v
		out[k] = &c
	}
	return out
}

// join merges two post-states of alternative branches.
func join(a, b env) env {
	out := make(env)
	for k, av := range a {
		m := *av
		if bv, ok := b[k]; ok {
			m.unknown = av.unknown || bv.unknown
			m.ran = av.ran || bv.ran
		}
		out[k] = &m
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			c := *bv
			out[k] = &c
		}
	}
	return out
}

func analyzeFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	in := &interp{pass: pass, reported: make(map[token.Pos]bool)}
	in.block(body, make(env))
}

// block runs the statements of b in sequence.
func (in *interp) block(b *ast.BlockStmt, e env) env {
	for _, s := range b.List {
		e = in.stmt(s, e)
	}
	return e
}

func (in *interp) stmt(s ast.Stmt, e env) env {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return in.block(s, e)
	case *ast.ExprStmt:
		return in.expr(s.X, e)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			e = in.expr(r, e)
		}
		for _, l := range s.Lhs {
			if key, ok := flatten(l); ok {
				// Assigning over a tracked machine retires its state.
				delete(e, key)
			}
		}
		return e
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						e = in.expr(v, e)
					}
				}
			}
		}
		return e
	case *ast.IfStmt:
		if s.Init != nil {
			e = in.stmt(s.Init, e)
		}
		e = in.expr(s.Cond, e)
		then := in.block(s.Body, e.clone())
		if s.Else != nil {
			els := in.stmt(s.Else, e.clone())
			return join(then, els)
		}
		return join(then, e)
	case *ast.ForStmt:
		if s.Init != nil {
			e = in.stmt(s.Init, e)
		}
		if s.Cond != nil {
			e = in.expr(s.Cond, e)
		}
		// Two passes so back-edge state is observed: a Run in the body with
		// no reset anywhere in the loop reports on the second pass.
		one := in.block(s.Body, e.clone())
		if s.Post != nil {
			one = in.stmt(s.Post, one)
		}
		merged := join(e, one)
		return join(merged, in.block(s.Body, merged.clone()))
	case *ast.RangeStmt:
		e = in.expr(s.X, e)
		one := in.block(s.Body, e.clone())
		merged := join(e, one)
		return join(merged, in.block(s.Body, merged.clone()))
	case *ast.SwitchStmt:
		if s.Init != nil {
			e = in.stmt(s.Init, e)
		}
		if s.Tag != nil {
			e = in.expr(s.Tag, e)
		}
		return in.cases(s.Body, e)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			e = in.stmt(s.Init, e)
		}
		return in.cases(s.Body, e)
	case *ast.SelectStmt:
		return in.cases(s.Body, e)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			e = in.expr(r, e)
		}
		return e
	case *ast.DeferStmt:
		// A deferred Reset runs at return, too late to separate two
		// Runs of the body.
		if _, name, ok := machineCall(in.pass, s.Call); ok && name == "Reset" {
			return e
		}
		return in.expr(s.Call, e)
	case *ast.GoStmt:
		return in.expr(s.Call, e)
	case *ast.LabeledStmt:
		return in.stmt(s.Stmt, e)
	case *ast.IncDecStmt:
		return in.expr(s.X, e)
	case *ast.SendStmt:
		e = in.expr(s.Chan, e)
		return in.expr(s.Value, e)
	}
	return e
}

// cases analyzes each clause of a switch/select body independently from the
// entry state and joins the results with the entry (no clause may match).
func (in *interp) cases(body *ast.BlockStmt, e env) env {
	out := e
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
		case *ast.CommClause:
			stmts = c.Body
		}
		branch := e.clone()
		for _, s := range stmts {
			branch = in.stmt(s, branch)
		}
		out = join(out, branch)
	}
	return out
}

// expr walks an expression, interpreting tracked machine calls in
// evaluation order and treating any other use of a machine as an escape.
func (in *interp) expr(x ast.Expr, e env) env {
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure body is checked as its own function; machines it
			// captures become unknown in this frame (the closure may run at
			// any time, any number of times).
			analyzeFunc(in.pass, n.Body)
			for _, st := range e {
				st.unknown = true
			}
			return false
		case *ast.CallExpr:
			if key, name, ok := machineCall(in.pass, n); ok {
				for _, a := range n.Args {
					e = in.expr(a, e)
				}
				in.machineOp(n, key, name, e)
				return false
			}
			// A machine passed as an argument to a call we do not model
			// escapes.
			for _, a := range n.Args {
				if key, ok := flatten(a); ok {
					if st := e[key]; st != nil {
						st.unknown = true
					}
				}
			}
			return true
		}
		return true
	})
	return e
}

// machineOp applies one tracked method call to the state.
func (in *interp) machineOp(call *ast.CallExpr, key, name string, e env) {
	st := e[key]
	if st == nil {
		st = &mstate{}
		e[key] = st
	}
	switch name {
	case "Run":
		if st.ran && !st.unknown && !in.reported[call.Pos()] {
			in.reported[call.Pos()] = true
			in.pass.Reportf(call.Pos(), "second Run on %s without an intervening Reset", key)
		}
		st.ran = true
	case "Reset":
		st.ran = false
		st.unknown = false
	}
}

// machineCall reports whether call is a tracked method on a sim.Machine
// receiver expressible as an identifier chain, returning the chain key and
// method name.
func machineCall(pass *analysis.Pass, call *ast.CallExpr) (key, name string, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Run", "Reset":
	default:
		return "", "", false
	}
	if !isMachine(pass, sel.X) {
		return "", "", false
	}
	key, ok = flatten(sel.X)
	if !ok {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

// isMachine reports whether the expression's type is sim.Machine or
// *sim.Machine, matching the defining package by final path element so the
// fixture stub qualifies.
func isMachine(pass *analysis.Pass, x ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Machine" && obj.Pkg() != nil && analysis.PkgIs(obj.Pkg().Path(), "sim")
}

// flatten renders an identifier or selector chain (m, w.machine) as a
// stable key. Calls, index expressions and everything else are not
// flattenable: such receivers are not tracked.
func flatten(x ast.Expr) (string, bool) {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := flatten(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.ParenExpr:
		return flatten(x.X)
	case *ast.StarExpr:
		return flatten(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return flatten(x.X)
		}
	}
	return "", false
}
