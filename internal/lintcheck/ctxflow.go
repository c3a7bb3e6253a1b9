package lintcheck

import (
	"go/ast"
)

// CtxFlow enforces the serving-path invariant established in PR 2:
// library code never manufactures its own root context, because a
// context minted inside the engine is invisible to the caller — its
// deadline never fires, its cancellation never propagates, and the
// operator pull points it guards become uncancellable. The caller's
// ctx must flow through every layer instead.
//
// context.Background() and context.TODO() are therefore forbidden in
// non-test library code. Binaries (package main) own their process
// lifetime and are exempt; a library goroutine that genuinely has no
// caller — recovery replay before a DB exists, a background compactor —
// carries an //hsp:lint-allow ctxflow annotation whose reason the
// framework verifies is non-empty.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "no context.Background/TODO in non-test library code: the caller's ctx must flow through",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, name := range [...]string{"Background", "TODO"} {
				if pkgFunc(pass.Info, call, "context", name) {
					pass.Reportf(call.Pos(), "context.%s() in library code: thread the caller's ctx through (or annotate a deliberate shim with %s ctxflow <reason>)", name, AllowPrefix)
				}
			}
			return true
		})
	}
	return nil
}
