package lint

import (
	"go/ast"
	"go/types"
)

// Txnpair enforces transaction pairing, the precondition for the paper's
// commit contract: a TxBegin that never reaches TxCommit leaves the
// machine holding a physical transaction ID register forever (the log can
// never truncate past the open transaction's records and eventually
// wedges), and an Engine.Begin handle that is dropped on the floor leaks
// the same resources at the hardware-engine layer.
var Txnpair = &Analyzer{
	Name: "txnpair",
	Doc:  "every TxBegin must reach a TxCommit; every Engine.Begin handle must reach Commit/Abort or be handed off",
	Run:  runTxnpair,
}

func runTxnpair(pass *Pass) {
	for _, file := range pass.Files {
		for _, fd := range funcScopes(file) {
			checkCtxPairing(pass, fd)
			checkEnginePairing(pass, fd)
		}
	}
}

// checkCtxPairing proves, on each scope's CFG, that every TxBegin is
// followed by a TxCommit on all panic-free paths to return. Credit comes
// from a direct TxCommit, a `defer ctx.TxCommit()` (or a deferred or
// stored closure committing — permissive by design: the old lexical
// check accepted those, and a closure built to commit almost always
// runs), or a call to a pure-commit helper (Must TxCommit, never
// TxBegin). A violation reports the concrete escaping path.
func checkCtxPairing(pass *Pass, fd *ast.FuncDecl) {
	// A method literally named TxBegin or TxCommit is a forwarding
	// wrapper implementing sim.Ctx (tracers, fault injectors): the call
	// it makes is delegation, not an opened transaction, and pairing is
	// the wrapped context's caller's obligation.
	if fd.Recv != nil && (fd.Name.Name == "TxBegin" || fd.Name.Name == "TxCommit") {
		return
	}
	for _, sc := range scopesOf(fd) {
		checkCtxScope(pass, sc)
	}
}

func checkCtxScope(pass *Pass, sc scope) {
	begin := func(call *ast.CallExpr) (string, bool) {
		return "", primEffect(calleeOf(pass.Info, call)) == effTxBegin
	}
	commits := func(n ast.Node, _ string) bool {
		for _, call := range callsIn(n, true) {
			fn := calleeOf(pass.Info, call)
			if primEffect(fn) == effTxCommit {
				return true
			}
			if fi := pass.Mod.fns[fn]; fi != nil &&
				fi.must&effTxCommit != 0 && fi.may&effTxBegin == 0 {
				return true
			}
		}
		return false
	}
	for _, l := range unreleased(pass, sc, begin, commits) {
		pass.Reportf(l.call.Pos(),
			"%s opens a transaction with TxBegin but a path reaches return with no TxCommit (%s); an uncommitted transaction pins its log records and wedges truncation",
			sc.name, l.path)
	}
}

// checkEnginePairing tracks *core.Tx handles returned by Engine.Begin.
// A handle is satisfied if it reaches an Engine.Commit/Abort call or is
// used in any other way (stored in a field, returned, passed on): the
// analyzer flags only handles that are provably dropped — discarded
// results, blank assignments, and locals whose only reads feed the blank
// identifier. A local never read at all is the compiler's "declared and
// not used" error; `_ = tx` washes that error without committing
// anything. One pre-order walk suffices: a `:=` declaration precedes its
// uses, and an `_ = tx` statement precedes its operand.
func checkEnginePairing(pass *Pass, fd *ast.FuncDecl) {
	defs := make(map[types.Object]*ast.Ident) // handle → defining identifier
	used := make(map[types.Object]bool)
	washes := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if isFunc(calleeOf(pass.Info, call), corePkg, "Engine", "Begin") {
					pass.Reportf(call.Pos(),
						"%s discards the transaction handle returned by Engine.Begin; the engine-side transaction can never commit or abort", funcName(fd))
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if l, ok := lhs.(*ast.Ident); ok && l.Name == "_" {
						if r, ok := n.Rhs[i].(*ast.Ident); ok {
							washes[r] = true
						}
					}
				}
			}
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isFunc(calleeOf(pass.Info, call), corePkg, "Engine", "Begin") {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true // assigned into a field/index: handed off
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(),
					"%s assigns the Engine.Begin transaction handle to _; the engine-side transaction can never commit or abort", funcName(fd))
				return true
			}
			// Only `:=`-declared locals are tracked; assigning into a
			// pre-existing variable or field is a handoff.
			if obj := pass.Info.Defs[id]; obj != nil {
				defs[obj] = id
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil && defs[obj] != nil && !washes[n] {
				used[obj] = true
			}
		}
		return true
	})
	for obj, id := range defs {
		if !used[obj] {
			pass.Reportf(id.Pos(),
				"%s never meaningfully uses transaction handle %q after Engine.Begin; it must reach Engine.Commit (or Abort) or be handed off", funcName(fd), id.Name)
		}
	}
}
