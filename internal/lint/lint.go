// Package lint is pmlint's analysis framework: a self-contained,
// standard-library-only analogue of golang.org/x/tools/go/analysis that
// statically enforces the repo's persistence-domain invariants. The
// paper's value proposition is an ordering contract — log records become
// durable before the cached data they describe, commits are acked only
// after the undo+redo record is in NVRAM — and the analyzers in this
// package make the corresponding API discipline a build-time property:
//
//	txnpair         every TxBegin reaches a TxCommit; every Engine.Begin
//	                handle reaches Commit/Abort or is handed off
//	nobackdoor      only memctl (the machine's one write path), recovery
//	                and tests mutate a mem.Physical
//	quiesceorder    persisting a DIMM image requires a preceding Quiesce
//	                (drain the log/write-combining buffers first)
//	lockdiscipline  no channel send while holding a mutex
//	chaosonly       fault-injection arming (chaos.New, SetChaos,
//	                Config.Chaos writes) confined to the chaos plane,
//	                cmd/pmchaos, and sim construction
//	logbeforedata   every persistent store happens inside an open
//	                transaction on all CFG paths, through helpers
//	ackafterdurable client acks in transaction-running scopes are
//	                dominated by the image persist that makes them true
//	deferredunlock  every mutex acquisition is released on all exit paths
//
// txnpair, quiesceorder, logbeforedata, ackafterdurable and
// deferredunlock are built on internal/lint/flow (CFGs, dominator
// trees, path searches) plus the Module's interprocedural effect
// summaries, so they prove orderings on every panic-free path and report
// the concrete path that breaks one. Hygiene that another gate already
// proves has no rule here: go vet reports copied locks, the compiler
// rejects plain writes to typed atomics, and the zero-allocation tests
// measure hot-path allocation (DESIGN.md §9).
//
// Findings can be suppressed one-at-a-time with a `//pmlint:allow <rule>`
// directive on the offending line or the line above (see allow.go); an
// allow that suppresses nothing is itself a finding.
//
// The cmd/pmlint driver runs the suite over package patterns; tests drive
// individual analyzers over testdata fixtures with RunFixture.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the rule name used in reports and //pmlint:allow directives.
	Name string
	// Doc is a one-line description shown by `pmlint -list`.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Analyzers returns the full suite in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Txnpair, Nobackdoor, Quiesceorder, Lockdiscipline, Chaosonly,
		Logbeforedata, Ackafterdurable, Deferredunlock,
	}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Mod is the whole-module view: CFGs, call graph, and effect
	// summaries shared by the flow-based analyzers.
	Mod *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and tagged with its rule.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// RunAnalyzers applies each analyzer to pkg and returns the raw findings
// (before //pmlint:allow filtering), sorted by position. The module view
// covers pkg alone; the driver builds one Module over every loaded
// package instead so interprocedural credit crosses package boundaries.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return NewModule([]*Package{pkg}).Run(pkg, analyzers)
}

// Run applies each analyzer to one of the module's packages and returns
// the raw findings (before //pmlint:allow filtering), sorted by position.
func (m *Module) Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Mod:      m,
			diags:    &diags,
		}
		a.Run(pass)
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, rule.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// calleeOf resolves the function or method a call invokes, through method
// values, interface method sets, and package-qualified names alike.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isFunc reports whether fn is the named function of the named package.
// recv, when non-empty, additionally constrains the receiver's type name
// (interfaces included); pass "" to match any receiver or none.
func isFunc(fn *types.Func, pkgPath, recv, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if recv == "" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recv
}

// funcScopes yields every top-level function body in the file: declared
// functions and methods. Closures are part of their enclosing function's
// subtree, matching how a reader pairs Begin with Commit.
func funcScopes(file *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// funcName renders a function's reported name, methods as T.m.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
