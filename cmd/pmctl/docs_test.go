package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestDocumentedCommandsParse holds every `go run ./cmd/pmctl <sub> ...`
// line in README.md and EXPERIMENTS.md to the flags the subcommand really
// declares: the subcommand must exist and its arguments must parse, with
// operands only where the subcommand takes them. Nothing is run.
func TestDocumentedCommandsParse(t *testing.T) {
	const prefix = "go run ./cmd/pmctl "
	seen := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			_, cmdline, ok := strings.Cut(line, prefix)
			if !ok {
				continue
			}
			seen++
			cmdline, _, _ = strings.Cut(cmdline, "`")
			cmdline, _, _ = strings.Cut(cmdline, "#")
			args := strings.Fields(cmdline)
			where := fmt.Sprintf("%s:%d: pmctl %s", doc, i+1, strings.Join(args, " "))
			if len(args) == 0 {
				t.Errorf("%s: no subcommand", where)
				continue
			}
			var c *command
			for j := range commands {
				if commands[j].name == args[0] {
					c = &commands[j]
				}
			}
			if c == nil {
				t.Errorf("%s: unknown subcommand %q", where, args[0])
				continue
			}
			fs := flag.NewFlagSet("pmctl "+c.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			c.declare(fs)
			if err := fs.Parse(args[1:]); err != nil {
				t.Errorf("%s: %v", where, err)
			} else if c.operands == "" && fs.NArg() != 0 {
				t.Errorf("%s: takes no operands, got %q", where, fs.Args())
			}
		}
	}
	if seen == 0 {
		t.Fatal("no documented pmctl command found")
	}
}
