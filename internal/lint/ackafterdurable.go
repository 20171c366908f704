package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"pmemlog/internal/lint/flow"
)

// Ackafterdurable is the commit-acknowledgement half of the paper's
// contract, the invariant TestFlightDumpKillRecoveryAgreement probes
// dynamically: a server must not release a success Response to a client
// until the state it acknowledges is durable. In this codebase the
// durability point is the shard's image persist (save → Quiesce +
// WriteFile), so inside any scope that runs transactions (May TxBegin —
// closures handed to RunN absorbed), every send on a client-facing
// channel (Response, *connReq) must be dominated by a call that may
// persist the image. The proof is about ordering, not necessity: a
// helper like shard.settle persists conditionally (GET-only batches skip
// the save), and whether the condition is right is the dynamic test's
// job — what the analyzer guarantees is that no path acks before the
// persist point. Error responses (constant Status != StatusOK) claim no
// durability and are exempt.
var Ackafterdurable = &Analyzer{
	Name: "ackafterdurable",
	Doc:  "in transaction-running scopes, client acks (Response/connReq sends) are dominated by the image-persist call that makes them true",
	Run:  runAckafterdurable,
}

func runAckafterdurable(pass *Pass) {
	for _, file := range pass.Files {
		for _, fd := range funcScopes(file) {
			for _, sc := range scopesOf(fd) {
				checkAckScope(pass, sc)
			}
		}
	}
}

func checkAckScope(pass *Pass, sc scope) {
	m := pass.Mod
	// Gate: only scopes that run transactions owe the ordering. A conn
	// goroutine that never touches the machine answers protocol errors
	// freely.
	var scopeMay effect
	if sc.lit != nil {
		scopeMay = m.NodeMay(pass.Info, sc.lit)
	} else if fi := m.fns[declObj(pass, sc.decl)]; fi != nil {
		scopeMay = fi.may
	}
	if scopeMay&effTxBegin == 0 {
		return
	}

	persistCredit := func(n ast.Node) bool {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			return false // a deferred save runs after the ack was sent
		}
		for _, call := range callsIn(n, false) {
			if m.CallMay(pass.Info, call)&effPersistImage != 0 {
				return true
			}
		}
		return false
	}

	g := m.Graph(sc.body())
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			desc := ""
			switch n := n.(type) {
			case *ast.SendStmt:
				if ackSendEffect(pass.Info, n) == 0 || nonOKLiteral(pass, n.Value) {
					continue
				}
				desc = "sends a client response"
			case *ast.DeferStmt:
				continue
			default:
				// A call to a helper that acks but never persists is the
				// ack happening here, one frame down.
				for _, call := range callsIn(n, false) {
					may := m.CallMay(pass.Info, call)
					if may&effAck != 0 && may&effPersistImage == 0 {
						desc = "calls a helper that sends a client response"
						break
					}
				}
				if desc == "" {
					continue
				}
			}
			chain, ok := g.Reach(n, persistCredit)
			if !ok {
				continue // every route to the ack passes a may-persist call
			}
			pass.Reportf(n.Pos(),
				"%s %s with no image-persist call on the path %s; acking before the DIMM image is durable lets a crash roll back an acknowledged write (ack-after-durable)",
				sc.name, desc, flow.PathString(pass.Fset, chain, nil))
		}
	}
}

// declObj resolves a declared function's types.Func.
func declObj(pass *Pass, fd *ast.FuncDecl) *types.Func {
	obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
	return obj
}

// nonOKLiteral reports whether e is a Response composite literal whose
// Status field is a non-OK constant — an error answer that acknowledges
// no durable state.
func nonOKLiteral(pass *Pass, e ast.Expr) bool {
	x := ast.Unparen(e)
	if u, ok := x.(*ast.UnaryExpr); ok {
		x = ast.Unparen(u.X)
	}
	lit, ok := x.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Status" {
			continue
		}
		tv, ok := pass.Info.Types[kv.Value]
		if !ok || tv.Value == nil {
			return false
		}
		v, ok := constant.Int64Val(constant.ToInt(tv.Value))
		return ok && v != 0 // StatusOK == 0
	}
	return false // zero-value Status is StatusOK
}
