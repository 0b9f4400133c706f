package lint

import (
	"go/ast"
	"go/types"
)

// checkDetWrite is the determinism prover's last line of defense: no
// value tainted by a nondeterminism source — map iteration order, wall
// clock, pointer identity, runtime shape — may reach a rendered
// artifact. Sinks are the stats Collector's record methods, the metrics
// instruments and exporters, and exp's report tables; everything those
// write eventually lands in an NDJSON row, a CSV cell or a benchjson
// manifest that CI diffs byte-for-byte between runs.
func checkDetWrite(c *Ctx) {
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDetWriteFunc(c, fd)
		}
	}
}

func checkDetWriteFunc(c *Ctx, fd *ast.FuncDecl) {
	// Find candidate sites first; the taint fixpoint only runs for
	// functions that actually touch a sink.
	var sinks []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && sinkFunc(c, call) != nil {
			sinks = append(sinks, call)
		}
		return true
	})
	if len(sinks) == 0 {
		return
	}
	tt := taintFunc(c.Pkg, fd.Body)
	for _, call := range sinks {
		fn := sinkFunc(c, call)
		for _, arg := range call.Args {
			if r := tt.ExprTaint(arg); r != nil {
				c.Report(arg.Pos(), "nondeterministic value (%s) flows into %s.%s; rendered output must be a pure function of (config, seed)",
					r.Why, recvNamed(fn), fn.Name())
				break // one finding per call site is enough signal
			}
		}
	}
}

// sinkFunc resolves a call to a rendered-output sink method: any method
// with parameters on a stats or metrics receiver, or exp's Table. Nil
// for everything else.
func sinkFunc(c *Ctx, call *ast.CallExpr) *types.Func {
	fn := callee(c.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	if recvNamed(fn) == "" {
		return nil
	}
	switch fn.Pkg().Path() {
	case c.Cfg.StatsPath, c.Cfg.MetricsPath:
		return fn
	case c.Cfg.ExpPath:
		if recvNamed(fn) == "Table" {
			return fn
		}
	}
	return nil
}
