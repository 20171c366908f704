// Command pmchaos runs deterministic fault-injection campaigns against
// the simulated machine and the server, auditing every run with the
// same machinery pmctl doctor -strict uses. A campaign sweeps a seed range
// across the scenario matrix; every failure message carries the seed,
// and the same seed replays the failing run bit-for-bit:
//
//	pmchaos -seeds 20 -o chaos-report.json
//	pmchaos -scenarios torn-log-line,net-faults -seeds 50
//	pmchaos -scenarios combined -seed 1337        # exact replay of one run
//
// Exit status: 0 all runs clean, 1 any run failed, 2 usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pmemlog/internal/chaos/campaign"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("pmchaos", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		scenarioCSV = fs.String("scenarios", "", "comma-separated scenario names (default: all)")
		seeds       = fs.Int("seeds", 20, "number of seeds to sweep per scenario")
		startSeed   = fs.Int64("start-seed", 1, "first seed of the sweep")
		oneSeed     = fs.Int64("seed", 0, "run exactly this one seed (replay mode; overrides -seeds)")
		reportPath  = fs.String("o", "", "write the JSON campaign report here")
		scratch     = fs.String("dir", "", "scratch directory for server runs (default: a temp dir)")
		list        = fs.Bool("list", false, "list the scenario matrix and exit")
		verbose     = fs.Bool("v", false, "print one line per run")
	)
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: pmchaos [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return 2
	}

	all := campaign.Scenarios()
	if *list {
		for _, sc := range all {
			fmt.Fprintf(out, "%-14s [%s]  %s\n", sc.Name, sc.Target, sc.Desc)
		}
		return 0
	}

	scs := all
	if *scenarioCSV != "" {
		scs = scs[:0]
		for _, name := range strings.Split(*scenarioCSV, ",") {
			name = strings.TrimSpace(name)
			sc, ok := campaign.FindScenario(name)
			if !ok {
				fmt.Fprintf(errw, "pmchaos: unknown scenario %q (try -list)\n", name)
				return 2
			}
			scs = append(scs, sc)
		}
	}

	var seedList []int64
	if *oneSeed != 0 {
		seedList = []int64{*oneSeed}
	} else {
		if *seeds <= 0 {
			fmt.Fprintf(errw, "pmchaos: -seeds must be positive\n")
			return 2
		}
		for i := 0; i < *seeds; i++ {
			seedList = append(seedList, *startSeed+int64(i))
		}
	}

	dir := *scratch
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pmchaos-")
		if err != nil {
			fmt.Fprintf(errw, "pmchaos: %v\n", err)
			return 2
		}
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(errw, "pmchaos: %v\n", err)
		return 2
	}

	var progress io.Writer
	if *verbose {
		progress = out
	}
	rep := campaign.RunCampaign(scs, seedList, dir, progress)

	if *reportPath != "" {
		buf, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*reportPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(errw, "pmchaos: writing report: %v\n", err)
			return 2
		}
	}

	fmt.Fprintf(out, "pmchaos: %d scenario(s) x %d seed(s): %d run(s), %d failed\n",
		len(scs), len(seedList), rep.TotalRuns, rep.FailedRuns)
	if rep.FailedRuns > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintf(errw, "pmchaos: FAIL %s\n", f)
		}
		// Every failure string leads with "seed N [scenario]"; spell out
		// the replay invocation for the first one.
		if len(rep.Failures) > 0 {
			var seed int64
			var sc string
			if _, err := fmt.Sscanf(rep.Failures[0], "seed %d [%s", &seed, &sc); err == nil {
				sc = strings.TrimSuffix(sc, "]:")
				sc = strings.TrimSuffix(sc, "]")
				fmt.Fprintf(errw, "pmchaos: replay with: pmchaos -scenarios %s -seed %d -v\n", sc, seed)
			}
		}
		return 1
	}
	return 0
}
