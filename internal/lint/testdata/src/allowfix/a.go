// Fixtures for the //pmlint:allow escape hatch: a directive suppresses
// exactly one finding on its own line or the next line, an unused
// directive is itself a finding, and unknown rule names are rejected.
package allowfix

import "pmemlog/internal/mem"

func allowedTrailing(img *mem.Physical, a mem.Addr) {
	img.WriteWord(a, 1) //pmlint:allow nobackdoor -- fixture: reviewed raw write
}

func allowedStandalone(img *mem.Physical, a mem.Addr) {
	//pmlint:allow nobackdoor -- fixture: reviewed raw write
	img.WriteWord(a, 1)
}

func allowDoesNotLeak(img *mem.Physical, a mem.Addr) {
	//pmlint:allow nobackdoor -- covers only the next line
	img.WriteWord(a, 1)
	img.WriteWord(a, 2) // want "\\(Physical\\).WriteWord mutates persistent state"
}

func allowWrongRule(img *mem.Physical, a mem.Addr) {
	//pmlint:allow quiesceorder -- inactive rule here: suppresses nothing, reported unused? no: quiesceorder did not run
	img.WriteWord(a, 1) // want "\\(Physical\\).WriteWord mutates persistent state"
}

func unusedAllow(img *mem.Physical, a mem.Addr) {
	//pmlint:allow nobackdoor -- stale directive: want "unused pmlint:allow directive"
	_ = img
	_ = a
}

func unknownRule(img *mem.Physical, a mem.Addr) {
	//pmlint:allow nosuchrule -- typo: want "unknown rule"
	_ = img
	_ = a
}
