package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pmemlog"
	"pmemlog/internal/stats"
)

// gridThreads are the thread counts of the paper grid; with the 5 Table
// III microbenchmarks and FigureModes() that is 90 cells, the ones
// BENCH_micro.json holds at QuickParams().
var gridThreads = []int{1, 2}

const microRefPath = "BENCH_micro.json"

// gridRun repeats the paper grid and checks it: every repetition must give
// the same simulated results, and every cell must equal its committed
// BENCH_micro.json row. Simulated numbers are a fixed point of the repo;
// only the host time it takes to produce them may move.
type gridRun struct {
	benches []string      // nil = all of Table III
	budget  time.Duration // repeat until this much host time is spent...
	minReps int           // ...but at least this often...
	cap     time.Duration // ...unless the repetitions so far took this long (0 = no cap; one is always made)
	warm    int           // unmeasured repetitions first (stopped early by cap); set-up counts one, priced as cellTimes does
	refPath string
	fault   string // self-test: "micro" perturbs the reference rows

	e2e       map[string]metricValue
	layer     map[string]float64
	setup     time.Duration // grid construction + reference load (+ one warm repetition, priced cell by cell)
	attempted uint64
	failed    uint64
	failures  []string
}

func (g *gridRun) fail(format string, args ...any) {
	g.failed++
	if len(g.failures) < 8 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

func loadMicroRef(path string) (map[string]stats.Run, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []stats.Run
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ref := make(map[string]stats.Run, len(rows))
	for _, r := range rows {
		ref[cellKey(r)] = r
	}
	return ref, nil
}

func cellKey(r stats.Run) string { return fmt.Sprintf("%s/%s/%dt", r.Benchmark, r.Mode, r.Threads) }

func (g *gridRun) run() error {
	g.e2e, g.layer = map[string]metricValue{}, map[string]float64{}

	t0 := time.Now()
	benches := g.benches
	if benches == nil {
		benches = pmemlog.MicroBenchNames()
	}
	modes, params := pmemlog.FigureModes(), pmemlog.QuickParams()
	ref, err := loadMicroRef(g.refPath)
	if err != nil {
		return err
	}
	if g.fault == "micro" {
		for k, r := range ref {
			r.Cycles++
			ref[k] = r
		}
	}
	g.setup = time.Since(t0)
	pass := func(into *cellTimes) (*pmemlog.RunSet, error) {
		var marks []time.Time
		rs, err := pmemlog.RunMicroGrid(benches, gridThreads, modes, params,
			func(string, pmemlog.Mode, int) { marks = append(marks, time.Now()) })
		into.add(append(marks, time.Now()))
		return rs, err
	}

	var warm cellTimes
	for t0 = time.Now(); len(warm.passS) < g.warm && !(len(warm.passS) > 0 && capped(time.Since(t0), g.cap)); {
		if _, err := pass(&warm); err != nil {
			return err
		}
	}
	g.setup += time.Duration(warm.hostNS())

	t0 = time.Now()
	var first []stats.Run
	var timed cellTimes
	var instr uint64
	for rep := 0; time.Since(t0) < g.budget || (rep < g.minReps && !(rep > 0 && capped(time.Since(t0), g.cap))); rep++ {
		rs, err := pass(&timed)
		if err != nil {
			return err
		}
		runs := rs.Runs()
		g.attempted += uint64(len(runs))
		if rep == 0 {
			first = runs
			for _, r := range runs {
				instr += r.Instructions
			}
			g.crossCheck(rs, runs, ref, benches)
			continue
		}
		for i := range runs {
			if runs[i] != first[i] {
				g.fail("repetition %d: cell %s differs from repetition 0", rep, cellKey(runs[i]))
			}
		}
	}
	hostNS := timed.hostNS()
	g.e2e["sim_minstr_per_host_s"] = metricValue{
		Value: float64(instr) / 1e6 / (hostNS / 1e9), Spread: medianNoise(timed.passS), Samples: len(timed.passS),
	}
	g.layer["sim.host_ns_per_instr"] = hostNS / float64(instr)
	fmt.Fprintf(os.Stderr, "benchmark: paper grid: warm-up passes %.2f s, measured passes %.2f s\n", warm.passS, timed.passS)
	return nil
}

// cellTimes holds the host time of every grid cell over some passes. Host
// time is taken cell by cell (RunMicroGrid's progress hook marks the
// boundaries) and a pass is priced as the sum over the cells of each cell's
// median over the passes: a stall of the sandbox, or a garbage collection,
// then costs the cells it hit in one pass, not the whole pass (whole passes
// of one process differ by up to 30%, 1.6-2.2 s).
type cellTimes struct {
	ns    [][]float64 // [cell][pass]
	passS []float64   // whole passes, for the noise estimate and the log
}

func (c *cellTimes) add(marks []time.Time) {
	if c.ns == nil {
		c.ns = make([][]float64, len(marks)-1)
	}
	for i := range c.ns {
		c.ns[i] = append(c.ns[i], float64(marks[i+1].Sub(marks[i]).Nanoseconds()))
	}
	c.passS = append(c.passS, marks[len(marks)-1].Sub(marks[0]).Seconds())
}

func (c *cellTimes) hostNS() (sum float64) {
	for _, passes := range c.ns {
		sum += median(passes)
	}
	return sum
}

// crossCheck compares one repetition with the committed rows and derives
// the three paper metrics from it.
func (g *gridRun) crossCheck(rs *pmemlog.RunSet, runs []stats.Run, ref map[string]stats.Run, benches []string) {
	for _, r := range runs {
		want, ok := ref[cellKey(r)]
		switch {
		case !ok:
			g.fail("cell %s has no row in %s", cellKey(r), g.refPath)
		case r != want:
			g.fail("cell %s disagrees with %s: cycles %d vs %d, nvram writes %d vs %d",
				cellKey(r), g.refPath, r.Cycles, want.Cycles, r.NVRAMWriteBytes, want.NVRAMWriteBytes)
		}
	}
	var speed, traffic, energy []float64
	for _, b := range benches {
		for _, th := range gridThreads {
			base, okB := rs.UnsafeBase(b, th)
			fwb, okF := rs.Get(b, pmemlog.FWB.String(), th)
			if !okB || !okF {
				g.fail("grid lacks fwb or unsafe-base for %s/%dt", b, th)
				continue
			}
			speed = append(speed, fwb.Speedup(base))
			traffic = append(traffic, fwb.TrafficReduction(base))
			energy = append(energy, fwb.EnergyReduction(base))
		}
	}
	g.e2e["paper_fwb_speedup_x"] = metricValue{Value: pmemlog.Geomean(speed)}
	g.e2e["paper_fwb_write_reduction_x"] = metricValue{Value: pmemlog.Geomean(traffic)}
	g.e2e["paper_fwb_energy_reduction_x"] = metricValue{Value: pmemlog.Geomean(energy)}
}
