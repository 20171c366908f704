package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// serverPkg is the shard-loop package several analyzers key on
// (chaosonly, effects); obshotpath itself matches by path suffix.
const serverPkg = "pmemlog/internal/server"

// Obshotpath polices the observability calls inside the functions
// marked //pmlint:hot — the server's shard request loop, the pulse
// collector's per-interval tick, the scope ledger. A shard goroutine
// serializes every write to its simulated machine, and the pulse ticker
// samples every tracked series while requests land: anything that
// blocks there — a registry lookup taking the registration mutex, a
// Snapshot allocating per record — stalls clients or tears a window.
// Only the all-atomic handle fast paths are allowed; registration and
// rendering belong in setup code or the stats/doc path.
var Obshotpath = &Analyzer{
	Name: "obshotpath",
	Doc:  "inside server shard loops and pulse snapshotters, only lock-free allocation-free obs calls (Counter.Add/Inc/Value, Gauge.Set/Add, Histogram.Observe/SnapshotInto, HistogramSnapshot.DeltaSince, Tracer.Emit/EmitSpan/Enabled)",
	Run:  runObshotpath,
}

// isObsPkg reports whether path is the metrics registry package (the
// package whose call surface the rule audits).
func isObsPkg(path string) bool {
	return path == "internal/obs" || strings.HasSuffix(path, "/internal/obs")
}

// obsHotAllowed lists the obs entry points that are safe on the hot
// path: each is a handful of atomic operations, no mutex, no
// allocation (obs documents and tests this contract).
var obsHotAllowed = map[string]bool{
	"Counter.Inc":                  true,
	"Counter.Add":                  true,
	"Counter.Value":                true,
	"Gauge.Set":                    true,
	"Gauge.Add":                    true,
	"Histogram.Observe":            true,
	"Histogram.SnapshotInto":       true,
	"HistogramSnapshot.DeltaSince": true,
	"Tracer.Emit":                  true,
	"Tracer.EmitSpan":              true,
	"Tracer.Enabled":               true,
}

// obsRecvName renders fn's receiver type name, "" for package-level
// functions.
func obsRecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func runObshotpath(pass *Pass) {
	for _, file := range pass.Files {
		for _, fd := range hotFuncs(file) {
			hot := funcName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pass.Info, call)
				if fn == nil || fn.Pkg() == nil || !isObsPkg(fn.Pkg().Path()) {
					return true
				}
				name := fn.Name()
				if recv := obsRecvName(fn); recv != "" {
					name = recv + "." + name
				}
				if obsHotAllowed[name] {
					return true
				}
				pass.Reportf(call.Pos(),
					"obs.%s inside hot function %s may lock or allocate, stalling the loop's clients; only %s are allowed there",
					name, hot, allowedList())
				return true
			})
		}
	}
}

// allowedList renders the allowlist for the diagnostic, sorted for
// deterministic messages.
func allowedList() string {
	names := make([]string, 0, len(obsHotAllowed))
	for n := range obsHotAllowed {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
