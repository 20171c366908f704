package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemlog/internal/lint"
)

// repoRoot is where this test runs relative to: cmd/pmlint → ../..
const repoRoot = "../.."

// TestCleanTree is the CI gate in test form: the shipped tree must carry
// zero findings (modulo its reviewed pmlint:allow waivers).
func TestCleanTree(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-C", repoRoot, "./..."}, &out, &errw)
	if code != 0 {
		t.Fatalf("pmlint on the repo exited %d:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "0 finding(s)") {
		t.Fatalf("summary missing zero-findings count:\n%s", out.String())
	}
}

// TestInjectedViolations builds a throwaway module that replaces pmemlog
// with this repo, plants one violation per contract rule that a probe
// module can reach, and demonstrates that the gate fails — without ever
// dirtying the real tree. ackafterdurable is not planted: it keys on the
// server package's own Response/connReq channels, which code outside
// internal/server cannot send on.
func TestInjectedViolations(t *testing.T) {
	dir := t.TempDir()
	abs, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	gomod := "module probe\n\ngo 1.23\n\nrequire pmemlog v0.0.0-00010101000000-000000000000\n\nreplace pmemlog => " + abs + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package main

import (
	"io"

	"pmemlog"
)

func corrupt(sys *pmemlog.System) {
	sys.NVRAMImage().WriteWord(0, 1)
}

func leak(ctx pmemlog.Ctx) {
	ctx.TxBegin()
	ctx.Store(0, 1)
}

func bare(ctx pmemlog.Ctx) {
	ctx.Store(0, 2)
}

func undrained(sys *pmemlog.System, w io.Writer) error {
	return sys.SaveNVRAM(w)
}

func main() {}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	sarifPath := filepath.Join(dir, "pmlint.sarif")
	var out, errw bytes.Buffer
	code := run([]string{"-C", dir, "-github", "-sarif", sarifPath, "./..."}, &out, &errw)
	if code != 1 {
		t.Fatalf("pmlint on planted violations exited %d, want 1:\n%s%s", code, out.String(), errw.String())
	}
	text := out.String()
	for _, want := range []string{"[nobackdoor]", "[txnpair]", "[logbeforedata]", "[quiesceorder]", "::error file="} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	sarif, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("SARIF log not written: %v", err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarif, &log); err != nil {
		t.Fatalf("SARIF log does not parse: %v\n%s", err, sarif)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "pmlint" {
		t.Fatalf("SARIF header wrong:\n%s", sarif)
	}
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(lint.Analyzers()); got != want {
		t.Errorf("SARIF rules lists %d rules, want the full suite of %d", got, want)
	}
	seenRules := make(map[string]bool)
	for _, r := range log.Runs[0].Results {
		seenRules[r.RuleID] = true
		for _, loc := range r.Locations {
			uri := loc.PhysicalLocation.ArtifactLocation.URI
			if filepath.IsAbs(uri) || strings.Contains(uri, "\\") {
				t.Errorf("SARIF artifact URI %q is not a relative slash path", uri)
			}
			if loc.PhysicalLocation.Region.StartLine <= 0 {
				t.Errorf("SARIF result for %s missing a line number", r.RuleID)
			}
		}
	}
	for _, rule := range []string{"nobackdoor", "txnpair", "logbeforedata", "quiesceorder"} {
		if !seenRules[rule] {
			t.Errorf("SARIF results missing planted %s finding:\n%s", rule, sarif)
		}
	}
}

// TestSARIFWrittenOnCleanRun: code-scanning uploads run unconditionally,
// so a clean tree must still produce a parseable log (with zero results).
func TestSARIFWrittenOnCleanRun(t *testing.T) {
	sarifPath := filepath.Join(t.TempDir(), "clean.sarif")
	var out, errw bytes.Buffer
	code := run([]string{"-C", repoRoot, "-sarif", sarifPath, "./cmd/pmlint"}, &out, &errw)
	if code != 0 {
		t.Fatalf("pmlint on cmd/pmlint exited %d:\n%s%s", code, out.String(), errw.String())
	}
	sarif, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("SARIF log not written on clean run: %v", err)
	}
	var log struct {
		Runs []struct {
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarif, &log); err != nil {
		t.Fatalf("clean SARIF log does not parse: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 0 {
		t.Fatalf("clean run should carry one run with zero results:\n%s", sarif)
	}
}

// TestStaleAllowFailsGate: a //pmlint:allow that suppresses nothing is
// itself a finding, so the waiver audit is part of the default exit code.
func TestStaleAllowFailsGate(t *testing.T) {
	dir := t.TempDir()
	abs, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	gomod := "module probe\n\ngo 1.23\n\nrequire pmemlog v0.0.0-00010101000000-000000000000\n\nreplace pmemlog => " + abs + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package main

import "pmemlog"

func fine(ctx pmemlog.Ctx) {
	//pmlint:allow txnpair -- stale: nothing here needs waiving
	ctx.TxBegin()
	ctx.Store(0, 1)
	ctx.TxCommit()
}

func main() {}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &out, &errw)
	if code != 1 {
		t.Fatalf("stale allow exited %d, want 1:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "unused pmlint:allow directive") {
		t.Fatalf("expected an unused-directive finding:\n%s", out.String())
	}
}

// TestOnlyAndList exercises the flag surface: -list inventories the
// suite, -only restricts it, and an unknown rule is a usage error.
func TestOnlyAndList(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, rule := range []string{"txnpair", "nobackdoor", "quiesceorder", "lockdiscipline"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list missing rule %s:\n%s", rule, out.String())
		}
	}

	out.Reset()
	errw.Reset()
	if code := run([]string{"-only", "nosuchrule", "./..."}, &out, &errw); code != 2 {
		t.Fatalf("-only nosuchrule exited %d, want 2", code)
	}

	out.Reset()
	errw.Reset()
	if code := run([]string{"-C", repoRoot, "-only", "quiesceorder", "./cmd/pmctl"}, &out, &errw); code != 0 {
		t.Fatalf("-only quiesceorder on cmd/pmctl exited %d:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "2 suppressed") {
		t.Fatalf("expected pmctl recover's quiesceorder waivers to register as suppressed:\n%s", out.String())
	}
}
