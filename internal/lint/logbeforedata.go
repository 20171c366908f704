package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"pmemlog/internal/lint/flow"
)

// Logbeforedata is the paper's core ordering contract made a build-time
// property: a persistent store is only legal while an undo+redo log
// transaction is open, because TxBegin is what guarantees the log record
// describing the mutation becomes durable before the cached data can be
// stolen (written back). The analyzer walks every panic-free path of
// every function's CFG with a transaction-state machine (out → in →
// committed), spends TxBegin credit earned inside helpers (Must-begin,
// never-commit), and propagates the requirement through the call graph:
// a helper that stores without opening its own transaction (applyPut,
// writeNode) becomes a store-like obligation at each of its call sites.
// Setup-phase stores through System.SetupCtx are exempt — they run
// before the machine is timed and have no log to order against.
var Logbeforedata = &Analyzer{
	Name: "logbeforedata",
	Doc:  "every persistent store (Ctx.Store/StoreBytes) happens inside an open transaction on all paths, through helpers; setup contexts exempt",
	Run:  runLogbeforedata,
}

func runLogbeforedata(pass *Pass) {
	for _, f := range pass.Mod.logBeforeDataFindings() {
		if f.pkg.Types == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// Transaction states walked along each path.
const (
	lbdOut    = iota // no transaction open, none committed on this path
	lbdIn            // transaction open
	lbdClosed        // a TxCommit closed the transaction
)

// lbdSum is one function's store-exposure summary.
type lbdSum struct {
	// out: entered out-of-transaction, some path reaches a persistent
	// store while no transaction is open — the caller owes a TxBegin.
	out bool
	// in: even entered mid-transaction, some path reaches a store with
	// the transaction closed — an intrinsic commit-then-store bug.
	in bool
}

// lbdHit is one reachable unprotected store.
type lbdHit struct {
	node   ast.Node
	call   *ast.CallExpr
	state  int // lbdOut or lbdClosed at the store
	chain  []*flow.Block
	helper *types.Func // non-nil: the store is inside this callee
}

func (m *Module) logBeforeDataFindings() []moduleFinding {
	if m.lbdDone {
		return m.lbdFindings
	}
	m.lbdDone = true

	sums := make(map[*types.Func]*lbdSum)
	for _, fi := range m.order {
		sums[fi.obj] = &lbdSum{}
	}
	analyzed := func(fi *fnInfo) bool {
		// sim implements the contract rather than obeying it: it owns
		// the Ctx machinery.
		if fi.pkg.Path == simPkg {
			return false
		}
		// A method literally named Store/StoreBytes is a forwarding
		// wrapper implementing sim.Ctx; the ordering obligation is its
		// caller's.
		if fi.decl.Recv != nil && (fi.decl.Name.Name == "Store" || fi.decl.Name.Name == "StoreBytes") {
			return false
		}
		return true
	}

	for changed := true; changed; {
		changed = false
		for _, fi := range m.order {
			if !analyzed(fi) {
				continue
			}
			s := sums[fi.obj]
			if !s.out && m.lbdSearch(fi, m.Graph(fi.decl.Body), lbdOut, sums) != nil {
				s.out = true
				changed = true
			}
			if !s.in && m.lbdSearch(fi, m.Graph(fi.decl.Body), lbdIn, sums) != nil {
				s.in = true
				changed = true
			}
		}
	}

	reported := make(map[token.Pos]bool)
	report := func(fi *fnInfo, name string, h *lbdHit) {
		if reported[h.call.Pos()] {
			return
		}
		reported[h.call.Pos()] = true
		path := flow.PathString(fi.pkg.Fset, h.chain, nil)
		var msg string
		what := "performs a persistent store"
		if h.helper != nil {
			what = "calls " + h.helper.Name() + ", which stores persistent state and requires an open transaction,"
		}
		if h.state == lbdClosed {
			msg = name + " " + what + " after TxCommit closed the transaction (path " + path +
				"); the mutation's undo+redo record is no longer guaranteed durable before the data (log-before-data)"
		} else {
			msg = name + " " + what + " with no TxBegin on the path " + path +
				"; without an open transaction the data could be stolen to NVRAM before its undo+redo record is durable (log-before-data)"
		}
		m.lbdFindings = append(m.lbdFindings, moduleFinding{pkg: fi.pkg, pos: h.call.Pos(), msg: msg})
	}

	for _, fi := range m.order {
		if !analyzed(fi) {
			continue
		}
		s := sums[fi.obj]
		// Intrinsic commit-then-store: wrong for every caller.
		if s.in {
			if h := m.lbdSearch(fi, m.Graph(fi.decl.Body), lbdIn, sums); h != nil && h.state == lbdClosed {
				report(fi, funcName(fi.decl), h)
			}
		}
		// Caller-owed TxBegin: report at roots only — a function with
		// module callers is a library whose precondition each call site
		// discharges (and is checked there).
		if s.out && len(m.callers[fi.obj]) == 0 {
			if h := m.lbdSearch(fi, m.Graph(fi.decl.Body), lbdOut, sums); h != nil {
				report(fi, funcName(fi.decl), h)
			}
		}
		// Workload closures handed to System.RunN start definitely
		// out of transaction: check each as a root.
		for _, lit := range runLits(fi) {
			if h := m.lbdSearch(fi, m.Graph(lit.Body), lbdOut, sums); h != nil {
				report(fi, "workload closure in "+funcName(fi.decl), h)
			}
		}
	}
	return m.lbdFindings
}

// runLits collects function literals passed to System.RunN inside fi.
func runLits(fi *fnInfo) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(fi.pkg.Info, call)
		if !isFunc(fn, simPkg, "System", "RunN") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if lit, ok := a.(*ast.FuncLit); ok {
					out = append(out, lit)
					return false // nested closures are the lit's own concern
				}
				return true
			})
		}
		return true
	})
	return out
}

// lbdSearch walks g from its entry in the given transaction state and
// returns the first reachable unprotected store (or store-requiring
// call), with the path that reaches it — nil when every path is clean.
func (m *Module) lbdSearch(fi *fnInfo, g *flow.Graph, entry int, sums map[*types.Func]*lbdSum) *lbdHit {
	info := fi.pkg.Info
	setupVars := collectSetupVars(info, fi.decl.Body)

	// stepNode simulates one CFG node: returns the updated state, or a
	// hit. Defer nodes neither store nor shift state — a deferred call
	// runs at return, outside this path's bracket.
	stepNode := func(n ast.Node, state int) (int, *lbdHit) {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			return state, nil
		}
		for _, call := range callsIn(n, false) {
			fn := calleeOf(info, call)
			if isStoreCall(fn) && !setupReceiver(info, call, setupVars) && state != lbdIn {
				return state, &lbdHit{node: n, call: call, state: state}
			}
			if s := sums[fn]; s != nil {
				hit := (state != lbdIn && s.out) || (state == lbdIn && s.in)
				if hit && !setupTainted(info, call, setupVars) {
					return state, &lbdHit{node: n, call: call, state: state, helper: fn}
				}
			}
			state = m.lbdTransfer(info, fn, state)
		}
		return state, nil
	}

	type key struct {
		b     *flow.Block
		state int
	}
	parent := make(map[key]key)
	seen := map[key]bool{{g.Entry, entry}: true}
	queue := []key{{g.Entry, entry}}
	finish := func(k key, h *lbdHit) *lbdHit {
		var rev []*flow.Block
		for ; ; k = parent[k] {
			rev = append(rev, k.b)
			if _, ok := parent[k]; !ok {
				break
			}
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		h.chain = rev
		return h
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		state := k.state
		for _, n := range k.b.Nodes {
			var h *lbdHit
			state, h = stepNode(n, state)
			if h != nil {
				return finish(k, h)
			}
		}
		for _, s := range k.b.Succs {
			nk := key{s, state}
			if !seen[nk] {
				seen[nk] = true
				parent[nk] = k
				queue = append(queue, nk)
			}
		}
	}
	return nil
}

// lbdTransfer folds one call into the path's transaction state.
func (m *Module) lbdTransfer(info *types.Info, fn *types.Func, state int) int {
	switch primEffect(fn) {
	case effTxBegin:
		return lbdIn
	case effTxCommit:
		return lbdClosed
	}
	if fi := m.fns[fn]; fi != nil {
		if fi.must&effTxBegin != 0 && fi.may&effTxCommit == 0 {
			return lbdIn // pure-begin helper: opens, never closes
		}
		if fi.must&effTxCommit != 0 && fi.may&effTxBegin == 0 {
			return lbdClosed // pure-commit helper
		}
	}
	return state
}

// isStoreCall reports whether fn is the Ctx persistent-store primitive.
func isStoreCall(fn *types.Func) bool {
	return isFunc(fn, simPkg, "", "Store") || isFunc(fn, simPkg, "", "StoreBytes")
}

// collectSetupVars finds variables bound to System.SetupCtx() results in
// body (closures included — setup contexts flow into literals).
func collectSetupVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isFunc(calleeOf(info, call), simPkg, "System", "SetupCtx") {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
		return true
	})
	return vars
}

// setupOrigin reports whether e evaluates to a setup context: a direct
// System.SetupCtx() call or a variable bound to one.
func setupOrigin(info *types.Info, e ast.Expr, setupVars map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return isFunc(calleeOf(info, x), simPkg, "System", "SetupCtx")
	case *ast.Ident:
		return setupVars[info.Uses[x]]
	}
	return false
}

// setupReceiver: the store call's receiver is a setup context.
func setupReceiver(info *types.Info, call *ast.CallExpr, setupVars map[types.Object]bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && setupOrigin(info, sel.X, setupVars)
}

// setupTainted: a setup context flows into the call — as an argument
// (storeValue(s.SetupCtx(), ...)), or through a chained constructor
// (b.op(setup, t).insert(k)) — discharging the callee's open-transaction
// requirement by construction.
func setupTainted(info *types.Info, call *ast.CallExpr, setupVars map[types.Object]bool) bool {
	tainted := false
	ast.Inspect(call, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && setupOrigin(info, e, setupVars) {
			tainted = true
		}
		return !tainted
	})
	return tainted
}
