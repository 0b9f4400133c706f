package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkOrdering proves that same-timestamp event ordering is governed
// by the sim.Pri* ladder and nothing else. The engine breaks timestamp
// ties by a packed (priority, sequence) key; if a call site passes a
// priority that is a raw literal, derives from map iteration order,
// wall time, or pointer identity, the tie-break becomes either
// meaningless (colliding raw numbers) or nondeterministic — and either
// way the guarantee that a run is a pure function of (config, seed)
// dissolves.
//
// Two analyses compose here:
//
//   - A whole-program "priority carrier" fixpoint (carrierSet, memoized
//     per Run): every uint32-typed object — variable, field, parameter,
//     result — starts optimistically as a carrier of ladder-derived
//     priority, and is demoted when any assignment, composite literal,
//     call argument or return feeds it a value that does not trace back
//     to a sim.Pri* constant. Network.wirePri → wire.init(pri) → w.pri
//     survives this fixpoint; a field ever assigned a bare literal does
//     not.
//
//   - The per-function taint engine (taint.go): even a carrier-shaped
//     expression is rejected when it is tainted by a nondeterminism
//     source (the tie-break value must not depend on map order or wall
//     time), and scheduling *times* are checked for taint too.
func checkOrdering(c *Ctx) {
	cs := c.carriers()
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var sched []*ast.CallExpr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && schedKind(c, call) != "" {
					sched = append(sched, call)
				}
				return true
			})
			if len(sched) == 0 {
				continue
			}
			tt := taintFunc(c.Pkg, fd.Body)
			for _, call := range sched {
				checkSchedCall(c, cs, tt, call)
			}
		}
	}
}

// schedKind classifies a call as an Engine scheduling entry point:
// "pri" for AtArgPri (carries an explicit priority), "time" for the
// default-priority family, "" for anything else.
func schedKind(c *Ctx, call *ast.CallExpr) string {
	fn := callee(c.Pkg.Info, call)
	if fn == nil || recvNamed(fn) != "Engine" {
		return ""
	}
	if isPkgFunc(fn, c.Cfg.SimPath, "AtArgPri") {
		return "pri"
	}
	if isPkgFunc(fn, c.Cfg.SimPath, "At", "After", "AtArg", "AfterArg") {
		return "time"
	}
	return ""
}

func checkSchedCall(c *Ctx, cs *carrierSet, tt *taintState, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	// The first argument is always the event time (absolute or delay):
	// a tainted time reorders the whole schedule, not just a tie.
	if r := tt.ExprTaint(call.Args[0]); r != nil {
		c.Report(call.Pos(), "event time derives from %s; schedule times must be a pure function of (config, seed)", r.Why)
		return
	}
	if schedKind(c, call) != "pri" || len(call.Args) < 4 {
		return
	}
	pri := call.Args[3]
	if r := tt.ExprTaint(pri); r != nil {
		c.Report(pri.Pos(), "same-timestamp priority derives from %s; tie-breaks must come from the sim.Pri* ladder", r.Why)
		return
	}
	if !cs.carrierExpr(c.Pkg, pri) {
		c.Report(pri.Pos(), "priority %s does not derive from the sim.Pri* ladder; raw tie-break values collide and make same-timestamp order arbitrary", exprString(pri))
	}
}

// exprString renders a short source-ish form of an expression for
// diagnostics (identifier chains and literals; "expression" otherwise).
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprString(x.X); base != "expression" {
			return base + "." + x.Sel.Name
		}
		return "expression"
	case *ast.BasicLit:
		return x.Value
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		if s := exprString(x.Fun); s != "expression" {
			return s + "(...)"
		}
	}
	return "expression"
}

// ---- priority-carrier fixpoint ----

// carrierSet is the whole-program result of the priority-provenance
// analysis: the set of uint32-typed objects that have been demoted from
// "carries a sim.Pri*-derived priority" because some flow feeds them a
// value with no ladder provenance. Objects declared outside the
// analyzed packages are never carriers (their provenance is unknowable).
type carrierSet struct {
	analyzed map[string]bool // package paths included in the fixpoint
	demoted  map[types.Object]bool
	simPath  string
}

// priFlow is one value flow into a uint32-typed object: expr may be nil
// for flows whose source is structurally unknowable (range variables).
type priFlow struct {
	obj  types.Object
	expr ast.Expr
	pkg  *Package
}

// carriers returns the run's memoized carrierSet, building it on first
// use from every loaded package.
func (c *Ctx) carriers() *carrierSet {
	if c.out.carriers != nil {
		return c.out.carriers
	}
	cs := &carrierSet{
		analyzed: make(map[string]bool),
		demoted:  make(map[types.Object]bool),
		simPath:  c.Cfg.SimPath,
	}
	for _, p := range c.All {
		cs.analyzed[p.Path] = true
	}
	var flows []priFlow
	for _, p := range c.All {
		flows = append(flows, collectPriFlows(p)...)
	}
	for changed := true; changed; {
		changed = false
		for _, fl := range flows {
			if cs.demoted[fl.obj] {
				continue
			}
			if fl.expr == nil || !cs.carrierExpr(fl.pkg, fl.expr) {
				cs.demoted[fl.obj] = true
				changed = true
			}
		}
	}
	c.out.carriers = cs
	return cs
}

// collectPriFlows gathers every flow into a uint32-typed object in one
// package: assignments, var specs, composite-literal fields, range
// bindings, call arguments into analyzed functions, and returns into
// named results.
func collectPriFlows(p *Package) []priFlow {
	var flows []priFlow
	info := p.Info
	add := func(obj types.Object, expr ast.Expr) {
		if obj == nil || !isUint32(obj.Type()) {
			return
		}
		flows = append(flows, priFlow{obj: obj, expr: expr, pkg: p})
	}
	// Returns need the enclosing function's signature, so they are
	// walked per function body with proper FuncLit scoping; everything
	// else is position-independent and uses one flat walk.
	var walkReturns func(body *ast.BlockStmt, sig *types.Signature)
	walkReturns = func(body *ast.BlockStmt, sig *types.Signature) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				var inner *types.Signature
				if tv, ok := info.Types[n]; ok {
					inner, _ = tv.Type.(*types.Signature)
				}
				walkReturns(n.Body, inner)
				return false
			case *ast.ReturnStmt:
				if sig == nil || sig.Results().Len() != len(n.Results) {
					return true
				}
				for i, res := range n.Results {
					add(sig.Results().At(i), res)
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						obj := identObj(info, rootIdent(n.Lhs[i]))
						if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
							// Compound op (+=, |=, <<=, ...): the new value is
							// old OP rhs, so it keeps ladder provenance iff the
							// object already carried it — a self-flow.
							add(obj, n.Lhs[i])
							continue
						}
						add(obj, n.Rhs[i])
					}
				} else {
					// Tuple form: multi-result call, provenance opaque.
					for _, lhs := range n.Lhs {
						add(identObj(info, rootIdent(lhs)), nil)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						add(identObj(info, name), n.Values[i])
					}
				}
			case *ast.RangeStmt:
				add(identObj(info, n.Key), nil)
				add(identObj(info, n.Value), nil)
			case *ast.CompositeLit:
				flows = append(flows, litFlows(p, n)...)
			case *ast.CallExpr:
				flows = append(flows, callFlows(p, n)...)
			case *ast.FuncDecl:
				if fn, ok := info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
					walkReturns(n.Body, fn.Type().(*types.Signature))
				}
			}
			return true
		})
	}
	return flows
}

// litFlows maps composite-literal elements onto struct field objects.
func litFlows(p *Package, lit *ast.CompositeLit) []priFlow {
	tv, ok := p.Info.Types[lit]
	if !ok {
		return nil
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	fieldByName := func(name string) *types.Var {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				return st.Field(i)
			}
		}
		return nil
	}
	var flows []priFlow
	for i, elt := range lit.Elts {
		var fld *types.Var
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				fld = fieldByName(id.Name)
			}
			val = kv.Value
		} else if i < st.NumFields() {
			fld = st.Field(i)
			val = elt
		}
		if fld != nil && isUint32(fld.Type()) {
			flows = append(flows, priFlow{obj: fld, expr: val, pkg: p})
		}
	}
	return flows
}

// callFlows maps call arguments onto the callee's parameter objects
// (only for statically-resolved callees; indirect calls contribute no
// flows — their parameters stay optimistic unless demoted elsewhere).
func callFlows(p *Package, call *ast.CallExpr) []priFlow {
	fn := callee(p.Info, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var flows []priFlow
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			break // variadic tail: param is a slice, not uint32
		}
		prm := sig.Params().At(i)
		if isUint32(prm.Type()) {
			flows = append(flows, priFlow{obj: prm, expr: arg, pkg: p})
		}
	}
	return flows
}

func isUint32(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint32
}

// carrierExpr reports whether an expression's value provably derives
// from the sim.Pri* ladder: it mentions a Pri* constant directly, or it
// reads/combines objects that survived the demotion fixpoint.
func (cs *carrierSet) carrierExpr(p *Package, e ast.Expr) bool {
	if mentionsPriConst(p, cs.simPath, e) {
		return true
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		obj := carrierObj(p, x)
		return cs.carrierVar(obj)
	case *ast.BinaryExpr:
		return cs.carrierExpr(p, x.X) || cs.carrierExpr(p, x.Y)
	case *ast.UnaryExpr:
		return cs.carrierExpr(p, x.X)
	case *ast.CallExpr:
		if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return cs.carrierExpr(p, x.Args[0]) // conversion preserves provenance
		}
		fn := callee(p.Info, x)
		if fn == nil {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() != 1 {
			return false
		}
		return cs.carrierVar(sig.Results().At(0))
	}
	return false
}

// carrierVar reports whether an object still carries ladder provenance:
// declared in an analyzed package and never demoted.
func (cs *carrierSet) carrierVar(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || !cs.analyzed[obj.Pkg().Path()] {
		return false
	}
	if !isUint32(obj.Type()) {
		return false
	}
	return !cs.demoted[obj]
}

// carrierObj resolves the object an ident or selector expression reads.
func carrierObj(p *Package, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return identObj(p.Info, x)
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel]
	}
	return nil
}

// mentionsPriConst reports whether the expression mentions any sim.Pri*
// ladder constant.
func mentionsPriConst(p *Package, simPath string, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if cn, ok := p.Info.Uses[id].(*types.Const); ok &&
			cn.Pkg() != nil && cn.Pkg().Path() == simPath && strings.HasPrefix(cn.Name(), "Pri") {
			found = true
		}
		return true
	})
	return found
}
