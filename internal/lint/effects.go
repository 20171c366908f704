package lint

import (
	"go/ast"
	"go/types"
	"slices"

	"pmemlog/internal/lint/flow"
)

// This file is the interprocedural layer under the flow-based analyzers:
// a call graph over go/types callees and per-function effect summaries
// ("appends a log record", "persists the image", "sends an ack")
// computed to a fixpoint, so a dominance proof in one function can spend
// credit earned inside a helper it calls.

// effect is a bitmask of persistence-ordering-relevant actions.
type effect uint8

const (
	// effTxBegin: opens a sim.Ctx transaction (the durable undo+redo log
	// append that must precede persistent stores).
	effTxBegin effect = 1 << iota
	// effTxCommit: closes a sim.Ctx transaction.
	effTxCommit
	// effQuiesce: drains the controller's volatile log write buffers.
	effQuiesce
	// effPersistImage: persists a DIMM image (SaveNVRAM, WriteFile/To).
	effPersistImage
	// effAck: sends a server Response/connReq to a client-facing channel.
	effAck
)

// mustTracked are the effects the Must fixpoint proves; effAck only ever
// matters as a may-effect.
var mustTracked = []effect{effTxBegin, effTxCommit, effQuiesce, effPersistImage}

// primEffect classifies fn as one of the domain's primitive operations.
// Matching is by package path, receiver, and name, so interface methods
// (sim.Ctx.TxBegin) and concrete ones resolve alike.
func primEffect(fn *types.Func) effect {
	switch {
	case isFunc(fn, simPkg, "", "TxBegin"):
		return effTxBegin
	case isFunc(fn, simPkg, "", "TxCommit"):
		return effTxCommit
	case isFunc(fn, simPkg, "System", "Quiesce"):
		return effQuiesce
	}
	for _, s := range imageSinks {
		if isFunc(fn, s.pkg, s.recv, s.name) {
			return effPersistImage
		}
	}
	return 0
}

// ackSendEffect reports whether s sends on a client-facing server
// channel: element type Response or *connReq from the server package.
// Only those sends count as acks.
func ackSendEffect(info *types.Info, s *ast.SendStmt) effect {
	tv, ok := info.Types[s.Chan]
	if !ok {
		return 0
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return 0
	}
	elem := ch.Elem()
	if p, ok := elem.(*types.Pointer); ok {
		elem = p.Elem()
	}
	named, ok := elem.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != serverPkg {
		return 0
	}
	return map[string]effect{"Response": effAck, "connReq": effAck}[named.Obj().Name()]
}

// fnInfo is one module function's summary.
type fnInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func

	// prim: primitive effects appearing anywhere in the body, closures
	// included (an effect inside a passed closure may still happen under
	// this call — RunN(func(ctx){...}) is the canonical case).
	prim effect
	// callees: the module functions the body calls, closures included.
	callees []*fnInfo
	// may: prim plus the may-effects of every module callee, to fixpoint.
	// An over-approximation: "calling fn can cause E".
	may effect
	// must: effects that occur on every panic-free path from entry to
	// return, deferred calls included. An under-approximation, grown
	// monotonically to fixpoint: "calling fn guarantees E by return".
	must effect
}

// Module is the unit of interprocedural analysis: every loaded package's
// function summaries, call graph, and (lazily built) CFGs.
type Module struct {
	pkgs    []*Package
	fns     map[*types.Func]*fnInfo
	order   []*fnInfo
	callers map[*types.Func][]*fnInfo
	graphs  map[*ast.BlockStmt]*flow.Graph

	// Module-wide analyses run once and replay per package.
	qDone       bool
	qFindings   []moduleFinding
	lbdDone     bool
	lbdFindings []moduleFinding
}

// NewModule indexes pkgs and computes the effect summaries.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		pkgs:    pkgs,
		fns:     make(map[*types.Func]*fnInfo),
		callers: make(map[*types.Func][]*fnInfo),
		graphs:  make(map[*ast.BlockStmt]*flow.Graph),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, fd := range funcScopes(file) {
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &fnInfo{pkg: pkg, decl: fd, obj: obj}
				m.fns[obj] = fi
				m.order = append(m.order, fi)
			}
		}
	}

	// Primitive effects, callees and the caller map, one body walk each.
	for _, fi := range m.order {
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeOf(fi.pkg.Info, n)
				fi.prim |= primEffect(fn)
				if callee, ok := m.fns[fn]; ok && !slices.Contains(fi.callees, callee) {
					fi.callees = append(fi.callees, callee)
					m.callers[callee.obj] = append(m.callers[callee.obj], fi)
				}
			case *ast.SendStmt:
				fi.prim |= ackSendEffect(fi.pkg.Info, n)
			}
			return true
		})
		fi.may = fi.prim
	}

	// May fixpoint: union callee summaries until stable.
	for changed := true; changed; {
		changed = false
		for _, fi := range m.order {
			may := fi.may
			for _, callee := range fi.callees {
				may |= callee.may
			}
			if may != fi.may {
				fi.may = may
				changed = true
			}
		}
	}

	// Must fixpoint: an effect is guaranteed when no panic-free
	// entry-to-return path avoids a node carrying it. Starting from ∅ and
	// growing monotonically under-approximates recursive helpers, which
	// is the safe direction: missing credit can cost a false positive but
	// never hides a real ordering break.
	for changed := true; changed; {
		changed = false
		for _, fi := range m.order {
			g := m.Graph(fi.decl.Body)
			for _, e := range mustTracked {
				if fi.must&e != 0 {
					continue
				}
				stop := func(n ast.Node) bool { return m.NodeMust(fi.pkg.Info, n)&e != 0 }
				if _, escapes := g.EscapeFromEntry(stop); !escapes {
					fi.must |= e
					changed = true
				}
			}
		}
	}
	return m
}

// Graph returns the (cached) CFG of a function or closure body.
func (m *Module) Graph(body *ast.BlockStmt) *flow.Graph {
	if g, ok := m.graphs[body]; ok {
		return g
	}
	g := flow.New(body)
	m.graphs[body] = g
	return g
}

// callsIn collects the calls that execute when node n executes. FuncLit
// bodies are skipped — a closure's calls run when the closure runs — but
// when includeLits is set (DeferStmt nodes: an immediately deferred
// literal runs by return) literal bodies are scanned too.
func callsIn(n ast.Node, includeLits bool) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && !includeLits {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			out = append(out, call)
		}
		return true
	})
	return out
}

// scope is one analyzed body: a declared function, or one closure inside
// it (closure bodies are their own CFGs, never part of the enclosing
// function's).
type scope struct {
	name string
	decl *ast.FuncDecl
	lit  *ast.FuncLit // nil for the declared function itself
}

func (s scope) body() *ast.BlockStmt {
	if s.lit != nil {
		return s.lit.Body
	}
	return s.decl.Body
}

// scopesOf lists fd's body and every closure body within it.
func scopesOf(fd *ast.FuncDecl) []scope {
	out := []scope{{name: funcName(fd), decl: fd}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, scope{name: "function literal in " + funcName(fd), decl: fd, lit: lit})
		}
		return true
	})
	return out
}

// CallMust is the effect credit one call confers: the callee's primitive
// effect, or its Must summary for module functions.
func (m *Module) CallMust(info *types.Info, call *ast.CallExpr) effect {
	fn := calleeOf(info, call)
	if e := primEffect(fn); e != 0 {
		return e
	}
	if fi := m.fns[fn]; fi != nil {
		return fi.must
	}
	return 0
}

// CallMay is the over-approximate counterpart of CallMust.
func (m *Module) CallMay(info *types.Info, call *ast.CallExpr) effect {
	fn := calleeOf(info, call)
	if e := primEffect(fn); e != 0 {
		return e
	}
	if fi := m.fns[fn]; fi != nil {
		return fi.may
	}
	return 0
}

// NodeMust is the guaranteed effect of executing CFG node n: inline call
// credit, plus — for defer statements — the deferred call's guarantee
// (it runs before the function returns, so by-return ordering holds).
func (m *Module) NodeMust(info *types.Info, n ast.Node) effect {
	_, isDefer := n.(*ast.DeferStmt)
	var eff effect
	for _, call := range callsIn(n, isDefer) {
		eff |= m.CallMust(info, call)
	}
	return eff
}

// NodeMay is the may-effect of executing node n, function-literal
// arguments absorbed: RunN(func(ctx){ ... TxBegin ... }) may-begins.
func (m *Module) NodeMay(info *types.Info, n ast.Node) effect {
	var eff effect
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.CallExpr:
			eff |= m.CallMay(info, c)
		case *ast.SendStmt:
			eff |= ackSendEffect(info, c)
		}
		return true
	})
	return eff
}
