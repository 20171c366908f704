package lint

import (
	"go/ast"
	"go/types"
)

// Noallochotpath polices heap allocation on the paper-critical hot
// paths, the functions marked //pmlint:hot: the circular-log
// append/truncate machinery (internal/nvlog), the shard request loop
// with its store (internal/server), and the pulse telemetry
// snapshotters (internal/obs/pulse). Those paths carry every persisted
// byte or run per request/interval while traffic lands, and the repo's
// alloc-guard tests hold them to 0 allocs/op in steady state — a stray
// make() or a fresh-slice append reintroduces per-op garbage that the
// tests only catch later, on whichever machine runs them. The analyzer
// catches the two recurring shapes at build time:
//
//   - make() whose result lands in a local: per-op allocation. Growing a
//     receiver-owned scratch field (x.buf = make(...), behind a cap
//     check) is amortized and allowed.
//   - append() onto a freshly materialized slice (append([]byte(nil),
//     ...), append([]T{...}, ...)): allocates its backing array every
//     call. Appends onto locals, fields, or reslices (buf[:0]) reuse
//     capacity and are allowed.
//
// Genuinely cold allocations inside a hot function (error paths, once-
// per-process growth) are waived line-by-line with //pmlint:allow.
var Noallochotpath = &Analyzer{
	Name: "noallochotpath",
	Doc:  "inside nvlog append/truncate, server shard-apply/store, and pulse snapshotter hot functions, no make() into locals and no append onto freshly allocated slices",
	Run:  runNoallochotpath,
}

func runNoallochotpath(pass *Pass) {
	for _, file := range pass.Files {
		for _, fd := range hotFuncs(file) {
			checkAllocFree(pass, fd, funcName(fd))
		}
	}
}

// checkAllocFree walks one hot function body flagging allocation shapes.
func checkAllocFree(pass *Pass, fd *ast.FuncDecl, hotName string) {
	// make() calls whose result is stored into a struct field are
	// amortized scratch growth; collect them first so the CallExpr walk
	// below can skip them.
	amortized := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if ok && isBuiltin(pass.Info, call, "make") {
				if _, isField := ast.Unparen(as.Lhs[i]).(*ast.SelectorExpr); isField {
					amortized[call] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBuiltin(pass.Info, call, "make"):
			if !amortized[call] {
				pass.Reportf(call.Pos(),
					"make() into a local inside hot function %s allocates per operation; reuse a scratch buffer (grow a receiver field behind a cap check) or waive with //pmlint:allow noallochotpath",
					hotName)
			}
		case isBuiltin(pass.Info, call, "append") && len(call.Args) > 0:
			switch ast.Unparen(call.Args[0]).(type) {
			case *ast.CompositeLit, *ast.CallExpr:
				pass.Reportf(call.Pos(),
					"append onto a freshly allocated slice inside hot function %s allocates its backing array per operation; append onto a reused scratch (e.g. buf[:0]) instead",
					hotName)
			}
		}
		return true
	})
}

// isBuiltin reports whether call invokes the named Go builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
