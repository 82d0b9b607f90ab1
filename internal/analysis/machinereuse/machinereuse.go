// Package machinereuse statically enforces the sim.Machine reuse protocol
// that PR 6 had to pin with runtime guards after four reuse bugs:
//
//  1. Machine.Run must not be reachable twice on the same receiver without
//     an intervening Reset or ResetWarm — including the second iteration of
//     a loop whose body Runs but never resets.
//  2. The knob overrides SetStopFirings and SetPeriodicOffsetTicks mutate
//     state that only a Reset/ResetWarm reverts; letting one escape a
//     function on a machine the caller handed in leaks the override into
//     the caller's next run.
//  3. A Snapshot belongs to the reset epoch it was taken in; Restore of a
//     snapshot captured before the most recent Reset is a guaranteed
//     runtime error ("snapshot predates the machine's last reset").
//
// The engine enforces all three dynamically; this analyzer moves the
// failure to vet time. The analysis is a conservative intra-procedural
// abstract interpretation over the AST: branch arms are analyzed separately
// and joined (so `if a { m.Run() } else { m.Run() }` is clean), loop bodies
// are analyzed twice so state flowing around the back edge is seen, and a
// machine that escapes into a call or closure falls back to "unknown",
// which never reports. Receivers are tracked while they are plain
// identifiers or unassigned selector chains (m, w.machine, pool.m).
//
// A site that violates the letter of the protocol deliberately — a wrapper
// that owns its machine and Resets on every entry before overriding knobs,
// so the "leaked" override is re-pointed before it can be observed — carries
// a //vrdf:reuseok(reason) waiver on its line or the line above. A waiver
// with an empty reason is itself a finding.
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
	Doc:  "check that sim.Machine runs are separated by resets, knob overrides do not escape, and snapshots are not restored across a reset epoch",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		waivers := analysis.Waivers(pass.Fset, file, "reuseok")
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok {
				if fn.Body != nil {
					analyzeFunc(pass, fn.Body, waivers)
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
	ran      bool      // Run since the last reset
	override token.Pos // pending SetStopFirings/SetPeriodicOffsetTicks, NoPos if none
	overName string
	epoch    int  // bumped by Reset/ResetWarm
	unknown  bool // escaped; never report
}

// snapInfo records the machine key and epoch a snapshot variable was filled
// in.
type snapInfo struct {
	machine string
	epoch   int
}

// interp is the per-function abstract interpreter.
type interp struct {
	pass     *analysis.Pass
	body     *ast.BlockStmt
	reported map[token.Pos]bool
	snaps    map[types.Object]snapInfo
	rootObjs map[string]types.Object // root identifier name -> object
	deferred map[string]bool         // machines with a deferred reset
	waivers  map[int]analysis.Waiver // //vrdf:reuseok waivers of the file
}

// report emits a diagnostic unless the site carries a reuseok waiver; a
// waiver without a reason is reported instead.
func (in *interp) report(pos token.Pos, format string, args ...any) {
	if w, ok := analysis.Waived(in.pass.Fset, in.waivers, pos); ok {
		if w.Reason == "" {
			in.pass.Reportf(w.Pos, "vrdf:reuseok waiver needs a reason")
		}
		return
	}
	in.pass.Reportf(pos, format, args...)
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
			if bv.ran {
				m.ran = true
			}
			if bv.override != token.NoPos && m.override == token.NoPos {
				m.override, m.overName = bv.override, bv.overName
			}
			if bv.epoch > m.epoch {
				m.epoch = bv.epoch
			}
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

func analyzeFunc(pass *analysis.Pass, body *ast.BlockStmt, waivers map[int]analysis.Waiver) {
	in := &interp{
		pass:     pass,
		body:     body,
		reported: make(map[token.Pos]bool),
		snaps:    make(map[types.Object]snapInfo),
		rootObjs: make(map[string]types.Object),
		deferred: make(map[string]bool),
		waivers:  waivers,
	}
	out := in.block(body, make(env))
	in.atReturn(out)
}

// atReturn reports overrides still pending on caller-visible machines.
func (in *interp) atReturn(e env) {
	for key, st := range e {
		if st.unknown || st.override == token.NoPos || in.deferred[key] {
			continue
		}
		if !in.callerVisible(key) {
			continue
		}
		if in.reported[st.override] {
			continue
		}
		in.reported[st.override] = true
		in.report(st.override,
			"%s on %s is not reverted by a Reset or ResetWarm before the function returns; the override leaks into the caller's next run",
			st.overName, key)
	}
}

// callerVisible reports whether the machine outlives this call frame: its
// root identifier is declared outside the analyzed body (parameter,
// receiver, captured or package variable), or it is reached through a
// selector chain (a field of some longer-lived value).
func (in *interp) callerVisible(key string) bool {
	root := key
	for i := 0; i < len(root); i++ {
		if root[i] == '.' {
			root = root[:i]
			break
		}
	}
	if root != key {
		return true
	}
	obj := in.rootObjs[root]
	if obj == nil {
		return false
	}
	return obj.Pos() < in.body.Pos() || obj.Pos() > in.body.End()
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
		in.recordSnapshots(s, e)
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
		in.atReturn(e)
		return e
	case *ast.DeferStmt:
		// defer m.Reset(...) / m.ResetWarm(...) discharges pending
		// overrides at every return.
		if key, name, ok := machineCall(in.pass, s.Call); ok && (name == "Reset" || name == "ResetWarm") {
			in.noteRoot(key, s.Call)
			in.deferred[key] = true
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
			analyzeFunc(in.pass, n.Body, in.waivers)
			for _, st := range e {
				st.unknown = true
			}
			return false
		case *ast.CallExpr:
			if key, name, ok := machineCall(in.pass, n); ok {
				for _, a := range n.Args {
					e = in.expr(a, e)
				}
				in.noteRoot(key, n)
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

// noteRoot resolves and remembers the root identifier's object for
// callerVisible.
func (in *interp) noteRoot(key string, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	x := sel.X
	for {
		switch v := x.(type) {
		case *ast.SelectorExpr:
			x = v.X
			continue
		case *ast.ParenExpr:
			x = v.X
			continue
		case *ast.StarExpr:
			x = v.X
			continue
		}
		break
	}
	if id, ok := x.(*ast.Ident); ok {
		if obj := in.pass.TypesInfo.Uses[id]; obj != nil {
			in.rootObjs[id.Name] = obj
		}
	}
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
			in.report(call.Pos(),
				"second Run on %s without an intervening Reset or ResetWarm", key)
		}
		st.ran = true
	case "Reset", "ResetWarm":
		st.ran = false
		st.override = token.NoPos
		st.epoch++
		st.unknown = false
	case "SetStopFirings", "SetPeriodicOffsetTicks":
		st.override = call.Pos()
		st.overName = name
	case "Restore":
		if len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if obj := in.pass.TypesInfo.Uses[id]; obj != nil {
					if si, ok := in.snaps[obj]; ok && si.machine == key && si.epoch < st.epoch && !st.unknown && !in.reported[call.Pos()] {
						in.reported[call.Pos()] = true
						in.report(call.Pos(),
							"Restore of snapshot %s taken before the last Reset of %s; the engine rejects cross-epoch restores at run time", id.Name, key)
					}
				}
			}
		}
		// Restore reinstates the snapshot's run flag; be permissive.
		st.ran = false
	case "Snapshot":
		// Handled at the assignment that captures the result.
	}
}

// recordSnapshots notes `s := m.Snapshot(...)` bindings with the machine's
// current epoch.
func (in *interp) recordSnapshots(s *ast.AssignStmt, e env) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, r := range s.Rhs {
		call, ok := r.(*ast.CallExpr)
		if !ok {
			continue
		}
		key, name, ok := machineCall(in.pass, call)
		if !ok || name != "Snapshot" {
			continue
		}
		id, ok := s.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := in.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = in.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		epoch := 0
		if st := e[key]; st != nil {
			epoch = st.epoch
		}
		in.snaps[obj] = snapInfo{machine: key, epoch: epoch}
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
	case "Run", "Reset", "ResetWarm", "Snapshot", "Restore", "SetStopFirings", "SetPeriodicOffsetTicks":
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
