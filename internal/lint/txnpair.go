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
	// The trace package replays recorded op streams: its TxBegin/TxCommit
	// calls are driven by data whose pairing the recording run
	// established, so no static path proof can (or needs to) hold there.
	replay := pass.Pkg.Path() == tracePkg
	for _, file := range pass.Files {
		for _, fd := range funcScopes(file) {
			if !replay {
				checkCtxPairing(pass, fd)
			}
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
			if fi := pass.Mod.funcInfo(fn); fi != nil &&
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
// results, blank assignments, and variables never read again.
func checkEnginePairing(pass *Pass, fd *ast.FuncDecl) {
	// defs maps each handle object to the identifier that defined it.
	defs := make(map[types.Object]*ast.Ident)
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
		}
		return true
	})
	if len(defs) == 0 {
		return
	}
	// Any later use of the handle satisfies the rule — except feeding it
	// to the blank identifier, which only washes the compiler's
	// declared-and-not-used error without committing anything.
	blankUses := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if l, ok := lhs.(*ast.Ident); ok && l.Name == "_" {
				if r, ok := as.Rhs[i].(*ast.Ident); ok {
					blankUses[r] = true
				}
			}
		}
		return true
	})
	used := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || blankUses[id] {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if def, tracked := defs[obj]; tracked && id != def {
			used[obj] = true
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
