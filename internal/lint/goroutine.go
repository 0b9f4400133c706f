package lint

import "go/ast"

// checkGoroutine flags `go` statements. Concurrency lives in exactly
// one layer of the simulator: internal/exp, whose worker pool runs
// independent simulations. Everywhere else — the engine, the device
// layer, the flow-control modules, stats — code relies on
// single-goroutine execution for determinism and skips synchronization
// on per-run state (collectors, packet pools, the event queue). A
// stray goroutine in those layers is a data race, so the rule bans the
// statement outright rather than waiting for the race detector to
// catch a schedule that exhibits it.
func checkGoroutine(c *Ctx) {
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				c.Report(g.Pos(), "go statement outside internal/exp: the simulator's deterministic layers are single-goroutine by contract (parallelism belongs to the exp executor's run-level pool)")
			}
			return true
		})
	}
}
