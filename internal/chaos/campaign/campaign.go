// Package campaign is the chaos campaign engine behind cmd/pmchaos: it
// sweeps seeds across a scenario matrix, runs each (scenario, seed) pair
// as one fully instrumented fault-injection run, and audits every run
// with the same machinery pmctl doctor -strict uses — recovery replay for
// the simulated machine, flight-dump analysis (verdict against replay
// agreement, acked-write loss) for the server.
//
// It lives below cmd/pmchaos and above everything else: internal/chaos
// itself must stay standard-library-only because the hardware layers
// import it, so the code that needs sim, server, flight, and recovery
// together lands here.
package campaign

import (
	"fmt"
	"io"
	"time"

	"pmemlog/internal/chaos"
)

// Scenario is one named cell of the campaign matrix: which fault sites
// are armed, with what triggers, against which target (the simulated
// machine or the server's network path).
type Scenario struct {
	Name string `json:"name"`
	// Target is "sim" (crash the simulated machine, verify recovery
	// against the oracle) or "server" (run pmserver traffic, kill it,
	// audit the flight dump and the restarted store).
	Target string                          `json:"target"`
	Sites  map[chaos.Site]chaos.SiteConfig `json:"sites"`
	Desc   string                          `json:"desc"`
}

// Scenarios returns the standard matrix: one scenario per fault type,
// one combined, one network. CI sweeps every scenario over a fixed seed
// range (see make chaos).
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "torn-log-line", Target: "sim",
			Sites: map[chaos.Site]chaos.SiteConfig{
				chaos.SiteTornLogLine: {Prob: 1},
			},
			Desc: "every in-flight log line tears at power loss (undo-before-overwrite decode check)",
		},
		{
			Name: "partial-drain", Target: "sim",
			Sites: map[chaos.Site]chaos.SiteConfig{
				chaos.SitePartialDrain: {Prob: 1},
			},
			Desc: "buffered log slots land partially in NVRAM at power loss (torn-bit scan)",
		},
		{
			Name: "drop-fwb", Target: "sim",
			Sites: map[chaos.Site]chaos.SiteConfig{
				chaos.SiteDropFWB: {Prob: 0.25, Max: 40},
			},
			Desc: "FWB scans skip flagged lines (truncation must keep waiting on real write-backs)",
		},
		{
			Name: "delay-wb", Target: "sim",
			Sites: map[chaos.Site]chaos.SiteConfig{
				chaos.SiteDelayWB: {Prob: 0.3, Arg: 2000},
			},
			Desc: "data write-back completions are delayed and reordered across banks",
		},
		{
			Name: "bank-stall", Target: "sim",
			Sites: map[chaos.Site]chaos.SiteConfig{
				chaos.SiteBankStall: {Prob: 0.2, Arg: 4000},
			},
			Desc: "NVRAM banks stall before answering (slow PCM rows perturb completion order)",
		},
		{
			Name: "combined", Target: "sim",
			Sites: map[chaos.Site]chaos.SiteConfig{
				chaos.SiteTornLogLine:  {Prob: 1},
				chaos.SitePartialDrain: {Prob: 1},
				chaos.SiteDropFWB:      {Prob: 0.2, Max: 30},
				chaos.SiteDelayWB:      {Prob: 0.2, Arg: 1500},
				chaos.SiteBankStall:    {Prob: 0.15, Arg: 3000},
			},
			Desc: "all hardware fault sites at once",
		},
		{
			Name: "net-faults", Target: "server",
			Sites: map[chaos.Site]chaos.SiteConfig{
				chaos.SiteConnDrop:      {Every: 41, Max: 3},
				chaos.SiteDelayAck:      {Every: 17, Arg: 200_000}, // 0.2 ms
				chaos.SiteDupAck:        {Every: 7},
				chaos.SiteSpuriousRetry: {Every: 13},
			},
			Desc: "conn drops mid-window, delayed/duplicated acks, spurious StatusRetry answers",
		},
	}
}

// FindScenario resolves a scenario by name.
func FindScenario(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RunResult is one (scenario, seed) run's outcome. Failures is empty on
// a clean run; every failure string leads with the seed so the run
// reproduces from `pmchaos -scenarios <name> -seed <seed>` alone.
type RunResult struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	// Sim-target evidence.
	CrashCycle uint64 `json:"crash_cycle,omitempty"`

	// Server-target evidence.
	AckedWrites int    `json:"acked_writes,omitempty"`
	Findings    int    `json:"findings,omitempty"`
	AckedLost   int    `json:"acked_lost,omitempty"`
	Agreement   bool   `json:"agreement,omitempty"`
	DumpPath    string `json:"dump_path,omitempty"`

	// Injection accounting (counts always; the full fault list is kept
	// only for failing runs to bound the report size).
	Injected uint64                `json:"injected"`
	Counts   map[chaos.Site]uint64 `json:"counts,omitempty"`
	Ledger   *chaos.Ledger         `json:"ledger,omitempty"`

	Failures []string `json:"failures,omitempty"`
}

// Failed reports whether the run violated any acceptance bar.
func (r *RunResult) Failed() bool { return len(r.Failures) > 0 }

// finishLedger folds the injector's ledger into the result, keeping the
// full fault list only when the run failed.
func (r *RunResult) finishLedger(in *chaos.Injector) {
	l := in.Ledger()
	if l == nil {
		return
	}
	r.Injected = l.Injected
	r.Counts = l.Counts
	if r.Failed() {
		r.Ledger = l
	}
}

// failf records one failure, seed first, so any report line reproduces.
func (r *RunResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures,
		fmt.Sprintf("seed %d [%s]: %s", r.Seed, r.Scenario, fmt.Sprintf(format, args...)))
}

// Report is the campaign's JSON document (pmchaos -o).
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	Scenarios   []string    `json:"scenarios"`
	Seeds       []int64     `json:"seeds"`
	Runs        []RunResult `json:"runs"`
	TotalRuns   int         `json:"total_runs"`
	FailedRuns  int         `json:"failed_runs"`
	Failures    []string    `json:"failures,omitempty"`
}

// Run executes one (scenario, seed) pair. dir is the scratch directory
// for server-target runs (images, flight dumps); sim-target runs never
// touch the filesystem.
func Run(sc Scenario, seed int64, dir string) RunResult {
	res := RunResult{Scenario: sc.Name, Seed: seed}
	switch sc.Target {
	case "server":
		runServer(sc, seed, dir, &res)
	default:
		runSim(sc, seed, &res)
	}
	return res
}

// RunCampaign sweeps every scenario over every seed. verbose, when
// non-nil, receives one progress line per run.
func RunCampaign(scs []Scenario, seeds []int64, dir string, verbose io.Writer) *Report {
	rep := &Report{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, sc := range scs {
		rep.Scenarios = append(rep.Scenarios, sc.Name)
	}
	rep.Seeds = seeds
	for _, sc := range scs {
		for _, seed := range seeds {
			res := Run(sc, seed, dir)
			rep.TotalRuns++
			if res.Failed() {
				rep.FailedRuns++
				rep.Failures = append(rep.Failures, res.Failures...)
			}
			if verbose != nil {
				status := "ok"
				if res.Failed() {
					status = "FAIL"
				}
				fmt.Fprintf(verbose, "%-14s seed=%-6d injected=%-5d %s\n",
					sc.Name, seed, res.Injected, status)
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	return rep
}
