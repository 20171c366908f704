package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"pmemlog/internal/lint/flow"
)

// Deferredunlock proves that every sync.Mutex/RWMutex acquisition is
// released on every panic-free exit path of its scope. The persist
// domain leans on small critical sections (flight-recorder rings,
// metrics registries, the chaos injector's step hook) that are entered
// from the shard loop's hot path: a lock leaked on an early-return arm
// deadlocks the next batch, which stalls acks and looks exactly like a
// wedged log. Release credit is a matching Unlock/RUnlock on the same
// receiver expression — inline on every path, or registered with defer
// before/at the acquisition. Violations report the leaking path.
var Deferredunlock = &Analyzer{
	Name: "deferredunlock",
	Doc:  "every mutex Lock/RLock is released (inline on all exit paths, or by defer) in its scope",
	Run:  runDeferredunlock,
}

func runDeferredunlock(pass *Pass) {
	for _, file := range pass.Files {
		for _, fd := range funcScopes(file) {
			for _, sc := range scopesOf(fd) {
				checkUnlockScope(pass, sc)
			}
		}
	}
}

// lockCall matches a sync method call named one of names and renders
// it as written ("sh.mu.Unlock"); the receiver expression pairs a lock
// with its release.
func lockCall(info *types.Info, call *ast.CallExpr, names ...string) (string, bool) {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || !slices.Contains(names, fn.Name()) {
		return "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	return types.ExprString(sel), true
}

func checkUnlockScope(pass *Pass, sc scope) {
	// A lock's key is the release that pairs with it: sh.mu.Lock →
	// sh.mu.Unlock, sh.mu.RLock → sh.mu.RUnlock.
	lock := func(call *ast.CallExpr) (string, bool) {
		acq, ok := lockCall(pass.Info, call, "Lock", "RLock")
		return strings.TrimSuffix(acq, "Lock") + "Unlock", ok
	}
	unlocks := func(n ast.Node, key string) bool {
		// An inline unlock, or a defer registered after the lock, both
		// release by scope exit.
		_, isDefer := n.(*ast.DeferStmt)
		for _, call := range callsIn(n, isDefer) {
			if rel, ok := lockCall(pass.Info, call, "Unlock", "RUnlock"); ok && rel == key {
				return true
			}
		}
		return false
	}
	for _, l := range unreleased(pass, sc, lock, unlocks) {
		pass.Reportf(l.call.Pos(),
			"%s: %s has a path to return without %s (%s); a leaked lock wedges the next entrant",
			sc.name, strings.TrimSuffix(l.key, "Unlock")+"Lock", l.key, l.path)
	}
}

// leak is one acquisition that a path reaches return without releasing.
type leak struct {
	call *ast.CallExpr // the acquiring call
	key  string        // the release acquire named for it
	path string        // the escaping path, rendered
}

// unreleased proves, on sc's CFG, that every call acquire matches is
// released on every panic-free path to return, and returns the
// acquisitions that are not. acquire names each acquiring call's
// release key, and released reports whether a node releases key. A
// defer that releases and is registered before the acquisition (earlier
// in its block, or in a dominating block) covers every exit; otherwise a
// releasing node must lie on every path forward from the acquisition.
// txnpair (TxBegin/TxCommit) and deferredunlock (Lock/Unlock) are this
// prover with different matchers.
func unreleased(pass *Pass, sc scope, acquire func(*ast.CallExpr) (string, bool), released func(n ast.Node, key string) bool) []leak {
	g := pass.Mod.Graph(sc.body())
	type site struct {
		n    ast.Node
		b    *flow.Block
		i    int
		call *ast.CallExpr
		key  string
	}
	var acqs, defers []site
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				defers = append(defers, site{n: n, b: b, i: i})
				continue
			}
			for _, call := range callsIn(n, false) {
				if key, ok := acquire(call); ok {
					acqs = append(acqs, site{n, b, i, call, key})
				}
			}
		}
	}
	if len(acqs) == 0 {
		return nil
	}
	dom := flow.Dominators(g)
	var out []leak
	for _, a := range acqs {
		// Escape only scans forward from the acquisition, so a release
		// already deferred when it runs is checked here.
		covered := false
		for _, d := range defers {
			before := (d.b == a.b && d.i < a.i) || (d.b != a.b && dom.Dominates(d.b, a.b))
			if before && released(d.n, a.key) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		chain, escapes := g.Escape(a.n, func(n ast.Node) bool { return released(n, a.key) })
		if escapes {
			out = append(out, leak{a.call, a.key, flow.PathString(pass.Fset, chain, g.Exit)})
		}
	}
	return out
}
