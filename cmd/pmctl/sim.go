package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"pmemlog"
	"pmemlog/internal/bench"
)

// declareSim is `pmctl sim`: one (benchmark, mode, threads) simulation,
// metrics printed — the workhorse for ad-hoc exploration.
//
//	pmctl sim -bench hash -mode fwb -threads 4
//	pmctl sim -suite whisper -bench tpcc -mode fwb
//	pmctl sim -bench rbtree -mode fwb -values str -elements 65536 -txns 1000
//	pmctl sim -bench hash -mode fwb -compare       # run all 8 designs
func declareSim(fs *flag.FlagSet) func(*env) int {
	var (
		in        = declareSimInput(fs, simDefaults{threads: 1})
		suite     = fs.String("suite", "micro", "micro | whisper (-bench is then one of "+strings.Join(pmemlog.WhisperNames(), ",")+")")
		values    = fs.String("values", "int", "int | str element payloads (micro only)")
		logBuf    = fs.Int("log-buffer", -1, "log buffer entries (-1 = 15)")
		compare   = fs.Bool("compare", false, "run every design and print a comparison")
		perThread = fs.Bool("per-thread-logs", false, "distributed per-thread logs (Section III-F)")
		full      = fs.Bool("full", false, "report-quality sizes (slower)")
		csv       = fs.Bool("csv", false, "CSV output")
		jsonOut   = declareJSON(fs)
		mix       = fs.String("mix", "", "comma-separated microbenchmarks to run CONCURRENTLY, -threads each (e.g. -mix hash,sps is 2 benches x threads)")
	)
	return func(e *env) int {
		switch {
		case *suite != "micro" && *suite != "whisper", *values != "int" && *values != "str":
			return e.fail(2, fmt.Errorf("-suite %q -values %q: want micro or whisper, and int or str", *suite, *values))
		case *suite == "whisper" && *mix != "":
			return e.fail(2, errors.New("-mix runs microbenchmarks; it does not combine with -suite whisper"))
		case *suite == "whisper" && *values == "str":
			return e.fail(2, errors.New("-values str is for microbenchmarks; it does not combine with -suite whisper"))
		}
		label := *suite + " / " + *in.bench
		if *mix != "" {
			label = "mix " + *mix
		}
		base := pmemlog.QuickParams()
		if *full {
			base = pmemlog.FullParams()
		}
		p := in.params(base)
		if *values == "str" {
			p.Values = bench.StrValues
		}
		p.LogBufferEntries = *logBuf
		p.PerThreadLogs = *perThread

		modes := pmemlog.AllModes()
		if !*compare {
			m, err := pmemlog.ParseMode(*in.mode)
			if err != nil {
				return e.fail(1, err)
			}
			modes = []pmemlog.Mode{m}
		}

		t := &pmemlog.Table{Header: []string{
			"mode", "txns", "cycles", "tput(tx/s)", "ipc", "instr",
			"lat-p50", "lat-p99", "nvram-wr-B", "log-B", "mem-energy-uJ",
		}}
		var runs []pmemlog.Run
		for _, m := range modes {
			var r pmemlog.Run
			var err error
			switch {
			case *mix != "":
				r, err = pmemlog.RunMixedMicro(strings.Split(*mix, ","), m, *in.threads, p)
			case *suite == "whisper":
				r, err = pmemlog.RunWhisper(*in.bench, m, *in.threads, p)
			default:
				r, err = pmemlog.RunMicro(*in.bench, m, *in.threads, p)
			}
			if err != nil {
				return e.fail(1, err)
			}
			runs = append(runs, r)
			t.Add(r.Mode, r.Transactions, r.Cycles, r.Throughput(), r.IPC(),
				r.Instructions, r.TxnLatencyP50, r.TxnLatencyP99,
				r.NVRAMWriteBytes, r.LogWriteBytes, r.MemEnergyPJ/1e6)
		}
		switch {
		case *jsonOut:
			return e.writeJSON(runs, "  ")
		case *csv:
			fmt.Fprint(e.out, t.CSV())
		default:
			fmt.Fprintf(e.out, "%s / %d thread(s)\n\n%s", label, *in.threads, t)
		}
		return 0
	}
}
