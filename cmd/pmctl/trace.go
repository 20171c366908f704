package main

import (
	"flag"
	"fmt"
	"os"

	"pmemlog"
	"pmemlog/internal/obs"
)

// declareTrace is `pmctl trace`: it records an event trace of one
// microbenchmark run and converts it to Chrome trace_event JSON (loadable
// in about:tracing or https://ui.perfetto.dev), plus a per-phase
// transaction breakdown on stdout:
//
//	pmctl trace -bench hash -mode fwb -threads 2 -o trace.json
//
// The timeline makes the paper's ordering arguments visible: log
// appends racing the cached stores they cover, FWB scans draining
// dirty lines, wrap-arounds and buffer stalls exactly where they
// happen relative to the transactions that caused them.
func declareTrace(fs *flag.FlagSet) func(*env) int {
	var (
		in      = declareSimInput(fs, simDefaults{threads: 2, elements: 4096, txns: 150, logKB: 64})
		events  = fs.Int("events", 1<<16, "ring capacity per thread (oldest records overwritten beyond it)")
		ghz     = fs.Float64("ghz", 2.0, "displayed clock: cycles are divided by ghz*1000 to map onto the viewer's microsecond axis")
		outPath = fs.String("o", "trace.json", "output path for the Chrome trace (- for stdout)")
	)
	return func(e *env) int {
		mode, err := pmemlog.ParseMode(*in.mode)
		if err != nil {
			return e.fail(2, err)
		}
		evs, ringNames, runStats, err := pmemlog.TraceMicro(*in.bench, mode, *in.threads, in.params(pmemlog.QuickParams()), *events)
		if err != nil {
			return e.fail(1, err)
		}

		cyclesPerMicro := *ghz * 1000
		if *outPath == "-" {
			err = obs.WriteChromeTrace(e.out, evs, cyclesPerMicro, ringNames)
		} else {
			var f *os.File
			if f, err = os.Create(*outPath); err == nil {
				err = obs.WriteChromeTrace(f, evs, cyclesPerMicro, ringNames)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err != nil {
			return e.fail(1, err)
		}

		fmt.Fprintf(e.out, "%s/%s/%dt: %d events captured (%d cycles wall)\n",
			*in.bench, mode, *in.threads, len(evs), runStats.Cycles)
		obs.PhaseBreakdown(evs).Format(e.out)
		if *outPath != "-" {
			fmt.Fprintf(e.out, "trace written to %s — open in about:tracing or ui.perfetto.dev\n", *outPath)
		}
		return 0
	}
}
