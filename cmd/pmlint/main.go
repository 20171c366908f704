// Command pmlint runs the persistence-domain analyzers over the module,
// in the spirit of a go/analysis multichecker:
//
//	go run ./cmd/pmlint ./...
//
// It exits 0 when the tree is clean, 1 when any finding survives the
// //pmlint:allow filter, and 2 on usage or load errors. With -github it
// emits GitHub Actions ::error annotations alongside the plain report,
// so CI failures land on the offending line in the diff view; -sarif
// additionally writes a SARIF 2.1.0 log (always, clean runs included)
// for code-scanning upload. -only takes a comma-separated list of rule
// names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pmemlog/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("pmlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		only   = fs.String("only", "", "comma-separated subset of rules to run (default: all)")
		github = fs.Bool("github", false, "also emit GitHub Actions ::error annotations")
		sarif  = fs.String("sarif", "", "write a SARIF 2.1.0 log to `file` (written on clean runs too)")
		list   = fs.Bool("list", false, "list the available rules and exit")
		dir    = fs.String("C", ".", "change to `dir` before resolving package patterns")
	)
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: pmlint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(out, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(all, *only)
	if err != nil {
		fmt.Fprintf(errw, "pmlint: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(errw, "pmlint: %v\n", err)
		return 2
	}

	// One Module over every loaded package, so interprocedural effect
	// summaries and call-graph credit cross package boundaries (main's
	// call into a library's may-persist helper, and vice versa).
	mod := lint.NewModule(pkgs)

	active := lint.RuleSet(analyzers)
	known := lint.RuleSet(all)
	findings := 0
	suppressed := 0
	var allKept []lint.Diagnostic
	for _, pkg := range pkgs {
		diags := mod.Run(pkg, analyzers)
		kept, n := lint.ApplyAllows(pkg.Fset, pkg.Files, diags, active, known)
		suppressed += n
		allKept = append(allKept, kept...)
		for _, d := range kept {
			findings++
			fmt.Fprintln(out, d.String())
			if *github {
				fmt.Fprintf(out, "::error file=%s,line=%d,col=%d::%s [%s]\n",
					d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
			}
		}
	}

	if *sarif != "" {
		// SARIF artifact locations are repo-relative URIs: strip the -C
		// directory prefix so code-scanning matches files from the root.
		if abs, err := filepath.Abs(*dir); err == nil {
			for i := range allKept {
				if rel, err := filepath.Rel(abs, allKept[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
					allKept[i].Pos.Filename = filepath.ToSlash(rel)
				}
			}
		}
		f, err := os.Create(*sarif)
		if err != nil {
			fmt.Fprintf(errw, "pmlint: %v\n", err)
			return 2
		}
		werr := lint.WriteSARIF(f, analyzers, allKept)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(errw, "pmlint: writing SARIF: %v\n", werr)
			return 2
		}
	}

	fmt.Fprintf(out, "pmlint: %d package(s), %d finding(s), %d suppressed by pmlint:allow\n",
		len(pkgs), findings, suppressed)
	if findings > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only flag's rule names against the suite.
func selectAnalyzers(all []*lint.Analyzer, only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	seen := make(map[string]bool)
	var picked []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (try -list)", name)
		}
		seen[name] = true
		picked = append(picked, a)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-only selected no rules")
	}
	return picked, nil
}
