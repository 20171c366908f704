package lint

import (
	"go/ast"
)

// Import paths of the packages whose APIs the analyzers key on.
const (
	simPkg    = "pmemlog/internal/sim"
	memPkg    = "pmemlog/internal/mem"
	corePkg   = "pmemlog/internal/core"
	pheapPkg  = "pmemlog/internal/pheap"
	serverPkg = "pmemlog/internal/server"
)

// Nobackdoor enforces one rule: only the memory controller (and
// recovery) mutate a mem.Physical. The controller's write is the one
// path through which the running machine changes its DIMM image, so it is
// the one place that knows which writes a crash can still revert.
// Everywhere else, a store that does not flow through a transaction Ctx
// (and so through the hardware undo+redo log) is invisible to recovery:
// after a crash it may be silently rolled back or, worse, survive
// half-applied. Population code has a sanctioned untimed path —
// System.SetupCtx — that writes through the controller and records the
// writes in the oracle.
var Nobackdoor = &Analyzer{
	Name: "nobackdoor",
	Doc:  "only memctl and recovery mutate a mem.Physical (Write, WriteWord, WriteLine, CopyFrom), and only re-attach sets Heap.SetUsed; tests exempt",
	Run:  runNobackdoor,
}

// nobackdoorExempt lists the packages that own the image: mem itself, the
// controller that writes it, and recovery, which runs alone on a
// powered-off image. _test.go files are exempt by construction (the
// loader checks the non-test compilation unit).
var nobackdoorExempt = map[string]bool{
	memPkg:                      true, // the physical image itself
	"pmemlog/internal/memctl":   true, // the machine's one write path
	"pmemlog/internal/recovery": true, // log replay writes the image by design
}

// backdoor describes one raw-mutation entry point.
type backdoor struct {
	pkg, recv, name string
	advice          string
}

var backdoors = []backdoor{
	{memPkg, "Physical", "WriteWord", "stores must go through a transaction Ctx so the HWL engine logs them"},
	{memPkg, "Physical", "Write", "stores must go through a transaction Ctx so the HWL engine logs them"},
	{memPkg, "Physical", "WriteLine", "stores must go through a transaction Ctx so the HWL engine logs them"},
	{memPkg, "Physical", "CopyFrom", "image replacement belongs to sim.System.LoadNVRAM/Attach"},
	{pheapPkg, "Heap", "SetUsed", "allocator occupancy may only be re-derived when (re)attaching a recovered image"},
}

func runNobackdoor(pass *Pass) {
	if nobackdoorExempt[pass.Pkg.Path()] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.Info, call)
			for _, b := range backdoors {
				if isFunc(fn, b.pkg, b.recv, b.name) {
					pass.Reportf(call.Pos(),
						"(%s).%s mutates persistent state behind the undo+redo log; %s",
						b.recv, b.name, b.advice)
					break
				}
			}
			return true
		})
	}
}
