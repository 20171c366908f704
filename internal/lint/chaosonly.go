package lint

import (
	"go/ast"
	"go/types"
)

const (
	chaosPkg         = "pmemlog/internal/chaos"
	chaosCampaignPkg = "pmemlog/internal/chaos/campaign"
	memctlPkg        = "pmemlog/internal/memctl"
	nvramPkg         = "pmemlog/internal/nvram"
	cachePkg         = "pmemlog/internal/cache"
)

// Chaosonly confines the fault-injection arming surface to the chaos
// plane itself. The injection hooks compiled into the memory controller,
// NVRAM device, cache hierarchy, and server are nil-guarded no-ops until
// someone arms them — and the only parties allowed to do that are the
// chaos campaign engine, its pmchaos driver, and the sim constructor
// that propagates an armed config down to the components. A production
// binary (cmd/pmserver with its default config) must have no reachable
// path to an armed injector: a torn write or dropped write-back that a
// customer can switch on is not a test harness, it is a data-loss
// feature. The rule flags every arming entry point — SetChaos calls,
// chaos.New, and writes to the Chaos field of sim.Config/server.Config —
// outside the sanctioned packages. Reading a ledger (flight dumps,
// pmctl doctor) is not arming and stays unrestricted.
var Chaosonly = &Analyzer{
	Name: "chaosonly",
	Doc:  "fault-injection arming (chaos.New, SetChaos, Config.Chaos writes) only in chaos/campaign, cmd/pmchaos, and sim construction",
	Run:  runChaosonly,
}

// chaosonlyExempt lists the packages that ARE the chaos plane or the
// sanctioned construction path. _test.go files are exempt by
// construction (the loader checks the non-test compilation unit), so
// crash tests anywhere may arm injectors freely.
var chaosonlyExempt = map[string]bool{
	chaosPkg:              true, // the injector itself
	chaosCampaignPkg:      true, // the campaign engine arms every run
	"pmemlog/cmd/pmchaos": true, // the campaign driver
	simPkg:                true, // propagates Config.Chaos to components
}

// chaosArmers lists the component methods that install an injector.
var chaosArmers = []struct {
	pkg, recv string
}{
	{memctlPkg, "Controller"},
	{nvramPkg, "Device"},
	{cachePkg, "Hierarchy"},
}

func runChaosonly(pass *Pass) {
	if chaosonlyExempt[pass.Pkg.Path()] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeOf(pass.Info, n)
				if isFunc(fn, chaosPkg, "", "New") {
					pass.Reportf(n.Pos(),
						"chaos.New builds a fault injector outside the chaos plane; arm faults through the campaign engine or a test")
					return true
				}
				for _, a := range chaosArmers {
					if isFunc(fn, a.pkg, a.recv, "SetChaos") {
						pass.Reportf(n.Pos(),
							"(%s).SetChaos arms fault injection outside sim construction; only sim.New may install an injector into components", a.recv)
						break
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "Chaos" && isChaosConfig(pass.Info, sel.X) {
						pass.Reportf(sel.Pos(),
							"assigning Config.Chaos arms fault injection; only the chaos campaign engine may build armed configs")
					}
				}
			case *ast.CompositeLit:
				if !isChaosConfigType(pass.Info.TypeOf(n)) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Chaos" {
						pass.Reportf(kv.Pos(),
							"setting Config.Chaos arms fault injection; only the chaos campaign engine may build armed configs")
					}
				}
			}
			return true
		})
	}
}

// isChaosConfig reports whether expr's type is a Config struct carrying
// a chaos hook (sim.Config or server.Config).
func isChaosConfig(info *types.Info, expr ast.Expr) bool {
	return isChaosConfigType(info.TypeOf(expr))
}

func isChaosConfigType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Config" || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case simPkg, serverPkg:
		return true
	}
	return false
}
