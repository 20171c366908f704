// Command experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each -figN flag prints the corresponding
// table/series; -all runs everything.
//
//	experiments -table1 -table2 -table3
//	experiments -fig6 -fig7 -fig8 -fig9        # microbenchmark grid
//	experiments -fig10                         # WHISPER suite
//	experiments -fig11a -fig11b                # sensitivity studies
//	experiments -all -full                     # everything, report size
//
// Results are normalized to unsafe-base (the better of sw-ulog/sw-rlog per
// benchmark), exactly as in the paper's figures. Absolute magnitudes
// differ from the paper (different substrate); the shapes — who wins, by
// roughly what factor — are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pmemlog"
	"pmemlog/internal/bench"
	"pmemlog/internal/prof"
)

func main() {
	var (
		all     = flag.Bool("all", false, "run everything")
		table1  = flag.Bool("table1", false, "Table I: hardware overhead")
		table2  = flag.Bool("table2", false, "Table II: system configuration")
		table3  = flag.Bool("table3", false, "Table III: microbenchmarks")
		fig6    = flag.Bool("fig6", false, "Fig 6: throughput speedup")
		fig7    = flag.Bool("fig7", false, "Fig 7: IPC speedup + instruction count")
		fig8    = flag.Bool("fig8", false, "Fig 8: memory dynamic energy reduction")
		fig9    = flag.Bool("fig9", false, "Fig 9: NVRAM write traffic reduction")
		fig10   = flag.Bool("fig10", false, "Fig 10: WHISPER results")
		fig11a  = flag.Bool("fig11a", false, "Fig 11a: log buffer size sweep")
		fig11b  = flag.Bool("fig11b", false, "Fig 11b: FWB frequency vs log size")
		full    = flag.Bool("full", false, "report-quality sizes (minutes instead of seconds)")
		values  = flag.String("values", "int", "int | str element payloads for the micro grid")
		threads = flag.String("threads", "1,2,4,8", "thread counts for the micro grid")
		verbose = flag.Bool("v", false, "progress output")
		csv     = flag.Bool("csv", false, "CSV output")
		jsonOut = flag.Bool("json", false, "write the micro grid's raw runs to BENCH_micro.json")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	p := pmemlog.QuickParams()
	if *full {
		p = pmemlog.FullParams()
	}
	if *values == "str" {
		p.Values = bench.StrValues
	}
	threadCounts := parseThreads(*threads)
	modes := pmemlog.AllModes()

	var progress func(string, pmemlog.Mode, int)
	if *verbose {
		start := time.Now()
		progress = func(b string, m pmemlog.Mode, th int) {
			fmt.Fprintf(os.Stderr, "[%6.1fs] %s / %s / %dt\n", time.Since(start).Seconds(), b, m, th)
		}
	}

	emit := func(title string, t *pmemlog.Table) {
		fmt.Printf("== %s ==\n", title)
		if *csv {
			fmt.Println(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	cfg := pmemlog.DefaultConfig(pmemlog.FWB, 8)
	if *table1 || *all {
		emit("Table I: hardware overhead of the design", pmemlog.Table1(cfg))
	}
	if *table2 || *all {
		emit("Table II: processor and memory configuration", pmemlog.Table2(cfg))
	}
	if *table3 || *all {
		emit("Table III: microbenchmarks", pmemlog.Table3())
	}

	needGrid := *fig6 || *fig7 || *fig8 || *fig9 || *jsonOut || *all
	if needGrid {
		rs, err := pmemlog.RunMicroGrid(pmemlog.MicroBenchNames(), threadCounts, modes, p, progress)
		if err != nil {
			fatal(err)
		}
		if *fig6 || *all {
			emit("Fig 6: transaction throughput speedup vs unsafe-base (higher is better)",
				pmemlog.Fig6(rs, threadCounts, modes))
		}
		if *fig7 || *all {
			emit("Fig 7a: IPC speedup vs unsafe-base (higher is better)",
				pmemlog.Fig7IPC(rs, threadCounts, modes))
			emit("Fig 7b: instruction count vs unsafe-base (lower is better)",
				pmemlog.Fig7Instr(rs, threadCounts, modes))
		}
		if *fig8 || *all {
			emit("Fig 8: memory dynamic energy reduction vs unsafe-base (higher is better)",
				pmemlog.Fig8(rs, threadCounts, modes))
		}
		if *fig9 || *all {
			emit("Fig 9: NVRAM write traffic reduction vs unsafe-base (higher is better)",
				pmemlog.Fig9(rs, threadCounts, modes))
		}
		if *jsonOut {
			if err := writeJSON("BENCH_micro.json", rs); err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "wrote BENCH_micro.json")
		}
	}

	if *fig10 || *all {
		th := 8
		wmodes := []pmemlog.Mode{pmemlog.NonPers, pmemlog.SWUndo, pmemlog.SWRedo, pmemlog.FWB}
		rs, err := pmemlog.RunWhisperGrid(pmemlog.WhisperNames(), th, wmodes, p, progress)
		if err != nil {
			fatal(err)
		}
		emit(fmt.Sprintf("Fig 10: WHISPER results at %d threads, fwb vs unsafe-base", th),
			pmemlog.Fig10(rs, th))
	}

	if *fig11a || *all {
		t := &pmemlog.Table{Header: []string{"log-buffer-entries", "tput(tx/s)", "speedup-vs-unbuffered"}}
		var base float64
		for _, n := range pmemlog.Fig11aSizes() {
			if progress != nil {
				progress(fmt.Sprintf("fig11a buf=%d", n), pmemlog.FWB, 1)
			}
			r, err := pmemlog.Fig11aPoint(n, 1, p)
			if err != nil {
				fatal(err)
			}
			if base == 0 {
				base = r.Throughput()
			}
			t.Add(n, r.Throughput(), r.Throughput()/base)
		}
		emit("Fig 11a: system throughput vs log buffer size (hash)", t)
	}

	if *fig11b || *all {
		emit("Fig 11b: required FWB scan interval vs log size",
			pmemlog.Fig11b(pmemlog.Fig11bSizes()))
	}
}

// jsonRun is one machine-readable grid point: the raw counters plus the
// derived rates the figures are built from, so downstream tooling never
// re-implements the normalization arithmetic.
type jsonRun struct {
	pmemlog.Run
	ThroughputTxS float64 `json:"throughput_tx_s"`
	IPC           float64 `json:"ipc"`
	TotalEnergyPJ float64 `json:"total_energy_pj"`
}

// writeJSON dumps every run in the set, sorted by (benchmark, mode,
// threads), to path (atomically: temp file + rename).
func writeJSON(path string, rs *pmemlog.RunSet) error {
	runs := rs.Runs()
	out := make([]jsonRun, 0, len(runs))
	for _, r := range runs {
		out = append(out, jsonRun{
			Run:           r,
			ThroughputTxS: r.Throughput(),
			IPC:           r.IPC(),
			TotalEnergyPJ: r.MemEnergyPJ + r.ProcEnergyPJ,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func parseThreads(s string) []int {
	var out []int
	cur := 0
	has := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if has {
				out = append(out, cur)
			}
			cur, has = 0, false
			continue
		}
		if s[i] >= '0' && s[i] <= '9' {
			cur = cur*10 + int(s[i]-'0')
			has = true
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
