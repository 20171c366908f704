// Command pmctl is the operator and exploration tool for the simulator and
// for pmserver, one subcommand per job (the commands table below; run
// pmctl with no arguments to print it).
//
// `pmctl <subcommand> -h` lists that subcommand's flags. The subcommands
// that simulate (sim, trace, recover) name their workload with one flag
// group, simInput; the ones that read a flight dump (doctor, scope) find
// it and its shard images with another, dumpInput.
//
// Exit status: 0 success, 2 usage or input errors; 1 is each
// subcommand's own failure (a run that failed, an inconsistent recovery,
// a -strict doctor finding, an unreachable server).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pmemlog"
	"pmemlog/internal/flight"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what a running subcommand sees of the process: its parsed flag
// set (for operands) and the two output streams.
type env struct {
	fs        *flag.FlagSet
	out, errw io.Writer
}

// errorf reports a problem on stderr as "pmctl <subcommand>: ...".
func (e *env) errorf(format string, a ...any) {
	fmt.Fprintf(e.errw, e.fs.Name()+": "+format+"\n", a...)
}

// fail reports err and returns code, the exit status.
func (e *env) fail(code int, err error) int {
	e.errorf("%v", err)
	return code
}

// command is one subcommand. declare registers its flags on fs and
// returns the body to run once they are parsed.
type command struct {
	name     string
	operands string // usage text after "[flags]"; "" = takes none
	summary  string
	declare  func(fs *flag.FlagSet) func(*env) int
}

var commands = []command{
	{"sim", "", "run one (benchmark, design, threads) simulation and print its metrics", declareSim},
	{"trace", "", "record an event trace of one run as Chrome trace_event JSON", declareTrace},
	{"recover", "", "crash a workload, run the recovery procedure, verify the result", declareRecover},
	{"doctor", "[dump.json]", "post-mortem of a flight dump against the durable log images", declareDoctor},
	{"scope", "[dump.json]", "persistence-cost analysis of a flight dump and its log images", declareScope},
	{"top", "", "live dashboard over a running pmserver's /pulse.json", declareTop},
}

func run(args []string, out, errw io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], out, errw)
			}
		}
		fmt.Fprintf(errw, "pmctl: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintf(errw, "usage: pmctl <subcommand> [flags]\n")
	for _, c := range commands {
		fmt.Fprintf(errw, "  %-8s %s\n", c.name, c.summary)
	}
	return 2
}

func (c command) run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("pmctl "+c.name, flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() {
		fmt.Fprintln(errw, strings.TrimSpace("usage: pmctl "+c.name+" [flags] "+c.operands))
		fs.PrintDefaults()
	}
	body := c.declare(fs)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	case c.operands == "" && fs.NArg() != 0:
		fs.Usage()
		return 2
	}
	return body(&env{fs: fs, out: out, errw: errw})
}

// simInput is how a subcommand names a simulated workload: a
// microbenchmark, a design point, a thread count and the sizes that
// scale it.
type simInput struct {
	bench, mode             *string
	threads, elements, txns *int
	logKB                   *uint64
}

// simDefaults are one subcommand's defaults for the workload flags; a 0
// size keeps whatever the base parameter set says.
type simDefaults struct {
	threads, elements, txns int
	logKB                   uint64
}

func declareSimInput(fs *flag.FlagSet, def simDefaults) *simInput {
	return &simInput{
		bench:    fs.String("bench", "hash", "microbenchmark: "+strings.Join(pmemlog.MicroBenchNames(), ", ")),
		mode:     fs.String("mode", "fwb", "design, one of "+fmt.Sprint(pmemlog.AllModes())),
		threads:  fs.Int("threads", def.threads, "hardware threads"),
		elements: fs.Int("elements", def.elements, "elements in the benchmark structure (0 = the parameter set's)"),
		txns:     fs.Int("txns", def.txns, "transactions per thread (0 = the parameter set's)"),
		logKB:    fs.Uint64("log-kb", def.logKB, "circular log size in KB (0 = the parameter set's; small logs exercise wrap-around, and below ~128 the large-transaction benchmarks rbtree/btree crawl through emergency flushes)"),
	}
}

// params overlays the sizes given on the command line onto base.
func (in *simInput) params(base pmemlog.Params) pmemlog.Params {
	if *in.elements > 0 {
		base.Elements, base.WhisperRecords = *in.elements, *in.elements
	}
	if *in.txns > 0 {
		base.TxnsPerThread, base.WhisperTxns = *in.txns, *in.txns
	}
	if *in.logKB > 0 {
		base.LogBytes = *in.logKB << 10
	}
	return base
}

// dumpInput is how a subcommand finds a flight dump and the shard NVRAM
// images it describes, and how it is asked for machine-readable output.
type dumpInput struct {
	path, images   *string
	noImages, json *bool
}

func declareDumpInput(fs *flag.FlagSet) *dumpInput {
	return &dumpInput{
		path:     fs.String("dump", "", "flight dump JSON (a bare positional argument works too)"),
		images:   fs.String("images", "", "directory holding the shard NVRAM images (default: the paths recorded in the dump, then the dump's own directory)"),
		noImages: fs.Bool("no-images", false, "do not read the shard images: report from the dump alone"),
		json:     declareJSON(fs),
	}
}

func declareJSON(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "emit the result as one JSON document")
}

// load reads the dump named by -dump or the single operand; open is nil
// under -no-images. Failing that it has told the user why (ok = false)
// and the subcommand exits 2.
func (in *dumpInput) load(e *env) (d *flight.Dump, open flight.ImageOpener, ok bool) {
	if *in.path == "" && e.fs.NArg() == 1 {
		*in.path = e.fs.Arg(0)
	}
	if *in.path == "" || e.fs.NArg() > 1 {
		e.fs.Usage()
		return nil, nil, false
	}
	d, err := flight.LoadDump(*in.path)
	if err != nil {
		e.errorf("%v", err)
		return nil, nil, false
	}
	if !*in.noImages {
		open = d.ImageOpener(*in.path, *in.images)
	}
	return d, open, true
}

// writeJSON emits v as the subcommand's -json document.
func (e *env) writeJSON(v any, indent string) int {
	enc := json.NewEncoder(e.out)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		return e.fail(2, err)
	}
	return 0
}
