// Command benchmark (pmbench) is the repository's benchmark: four fixed
// workloads, the end-to-end metrics a user of the system sees, a per-layer
// ledger measured from outside the layers, and a traced run. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -workload get_zipf   one workload, end-to-end metrics
//	go run ./benchmark -workload get_zipf -trace 1   its per-layer table + trace file
//	go run ./benchmark -compare a.json b.json
//
// Run it from the repository root: it reads BENCH_micro.json there and keeps
// its scratch data under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	scratchDir = ".bench_build/data" // same filesystem for every run
	outDir     = "benchmark/out"
)

// options are the knobs of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   time.Duration // > 0: smoke run with phases about this long (-short = 1 s)
	fault   string        // self-test: "verify" or "micro" makes the gate fail
	scratch string
	outDir  string
	refPath string
	benches []string // tests narrow the grid; nil = all of Table III
	// unspanned keeps client spans off in the traced window; the stage
	// waterfall then reads 0. Tests set it: they run in-process, where the
	// span race (isolate.go) would take the whole test binary down. A traced
	// run falls back to it after two crashes.
	unspanned bool
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`  // medianNoise of the samples, where the metric is their median
	Samples int     `json:"samples,omitempty"` // samples behind a percentile or median
	// ThinTail marks a percentile with fewer than 10 samples beyond it: it
	// is reported because the contract wants every metric from every run,
	// but it is one or two outliers, not a quantile.
	ThinTail bool `json:"thin_tail,omitempty"`
}

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Why        string                 `json:"why"`
	Correct    bool                   `json:"correct"`
	Attempted  uint64                 `json:"attempted"`
	Failed     uint64                 `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Failures   []string               `json:"failures,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile  string                 `json:"trace_file,omitempty"`
	WallS      float64                `json:"wall_s"`
}

// controlPhases sizes sim_paper's serving control segment: fixed, whatever
// --seconds says, because the measured work there is the grid.
func controlPhases(trace bool) phases {
	p := fullPhases(8, trace)
	p.warm, p.slice = time.Second, time.Second
	return p
}

// runWorkload runs one workload once. With trace off it fills the
// end-to-end metrics, with trace on the per-layer ones.
func runWorkload(w *workloadDef, o options) (*workloadResult, error) {
	start := time.Now()
	var ph phases
	switch {
	case o.smoke > 0:
		ph = smokePhases(o.smoke, o.trace)
	case w.simPrimary:
		ph = controlPhases(o.trace)
	default:
		ph = fullPhases(o.seconds, o.trace)
	}
	sv := &servingRun{
		name: w.name, spec: w.serve, seed: o.seed, ph: ph, trace: o.trace,
		dir: o.scratch, outDir: o.outDir, telemetryOff: w.telemetryOff, unspanned: o.unspanned,
	}
	// A serving run repeats the grid 3 times: the host time of a cell is its
	// median over the repetitions, so the first one, which grows the heap and
	// reads up to 20% slow, does not count. sim_paper, whose measured work
	// the grid is, warms up with 3 unmeasured passes (its set-up is their
	// median) and then repeats for --seconds, half of that when traced. The
	// traced run of a serving workload needs the grid only for
	// sim.host_ns_per_instr, which has no bound: one pass.
	gr := &gridRun{benches: o.benches, minReps: 3, cap: 5 * time.Second, refPath: o.refPath}
	switch {
	case o.smoke > 0:
		gr.minReps = 1
	case w.simPrimary:
		gr.warm, gr.budget = 3, time.Duration(o.seconds*float64(time.Second))
		if o.trace {
			gr.warm, gr.budget = 1, gr.budget/2
		}
	case o.trace:
		gr.minReps = 1
	}
	switch o.fault {
	case "verify":
		sv.fault = o.fault
	case "micro":
		gr.fault = o.fault
	}

	// The grid goes last on every workload, sim_paper too: its passes are
	// steadier in a process whose heap the serving segment has grown (ten
	// runs' sim_minstr_per_host_s spread 1-2% there, against 9% for
	// sim_paper while its grid came first, at process start).
	//pmlint:allow quiesceorder -- the image the mem-layer timing rewrites is a copy of a killed server's file; no machine is attached to it
	err := sv.run()
	if err == nil {
		err = gr.run()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	res := &workloadResult{
		Why:       w.why,
		Attempted: sv.attempted + gr.attempted,
		Failed:    sv.failed + gr.failed,
		Failures:  append(sv.failures, gr.failures...),
		TraceFile: sv.traceFile,
	}
	res.Correct = res.Failed == 0
	res.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	if len(res.Failures) > 16 {
		res.Failures = res.Failures[:16]
	}

	if o.trace {
		res.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			v, ok := sv.layer[d.Name]
			if !ok {
				if v, ok = gr.layer[d.Name]; !ok {
					return nil, fmt.Errorf("%s: layer metric %s was not measured", w.name, d.Name)
				}
			}
			res.PerLayer[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	} else {
		// setup_s is the set-up of the workload's measured part.
		if w.simPrimary {
			sv.e2e["setup_s"] = metricValue{Value: gr.setup.Seconds()}
		}
		res.EndToEnd = map[string]metricValue{}
		for _, d := range endToEnd {
			v, ok := sv.e2e[d.Name]
			if !ok {
				if v, ok = gr.e2e[d.Name]; !ok {
					return nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
				}
			}
			v.Unit = d.Unit
			res.EndToEnd[d.Name] = v
		}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Benchmark string                     `json:"benchmark"`
	Claim     *string                    `json:"claim"` // this benchmark claims no gain
	Host      map[string]any             `json:"host"`
	LoadShape map[string]any             `json:"load_shape"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Short     bool                       `json:"short,omitempty"`
	Catalogue map[string][]metricDef     `json:"catalogue"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func newResultFile(o options) *resultFile {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			commit += " + uncommitted changes"
		}
	}
	return &resultFile{
		Benchmark: "pmbench",
		Host: map[string]any{
			"hostname": host, "nproc": runtime.NumCPU(), "go": runtime.Version(),
			"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": commit,
		},
		LoadShape: map[string]any{
			"loop": "closed", "generator_processes": 1, "server": "in-process server.Start",
			"shards": numShards, "connections": numConns, "window": connWindow,
			"max_retries": maxRetries, "zipf": "rand.NewZipf(rng, 1.1, 2.0, n-1)",
			"seeds": "keys and op stream derive from -seed (acceptance: 1 and 2)",
		},
		Seed: o.seed, Seconds: o.seconds, Short: o.smoke > 0,
		Catalogue: map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer},
		Workloads: map[string]*workloadResult{},
	}
}

// merge folds a second run of the same workload (the traced one) into res.
func (res *workloadResult) merge(o *workloadResult) {
	res.Attempted += o.Attempted
	res.Failed += o.Failed
	res.Failures = append(res.Failures, o.Failures...)
	res.Correct = res.Failed == 0
	res.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	res.WallS += o.WallS
	if o.EndToEnd != nil {
		res.EndToEnd = o.EndToEnd
	}
	if o.PerLayer != nil {
		res.PerLayer, res.TraceFile = o.PerLayer, o.TraceFile
	}
}

func printMetrics(title string, defs []metricDef, vals map[string]metricValue) {
	if vals == nil {
		return
	}
	fmt.Printf("  %s\n", title)
	for _, d := range defs {
		v := vals[d.Name]
		line := fmt.Sprintf("    %-36s %16.6g %-9s", d.Name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		if v.ThinTail {
			line += " (withheld: fewer than 10 samples beyond it)"
		}
		if v.Spread > 0 {
			line += fmt.Sprintf(" noise=%.1f%%", 100*v.Spread)
		}
		fmt.Println(line)
	}
}

func printWorkload(name string, res *workloadResult) {
	fmt.Printf("workload %s  (%.1f s)\n", name, res.WallS)
	printMetrics("end-to-end", endToEnd, res.EndToEnd)
	fmt.Printf("    %-36s %16.6g %-9s %d failed of %d attempted\n", "failed_frac", res.FailedFrac, "frac", res.Failed, res.Attempted)
	printMetrics("per-layer", perLayer, res.PerLayer)
	if res.PerLayer != nil {
		if s := res.PerLayer["server.stage_share_sum"].Value; s < 0.95 || s > 1.05 {
			fmt.Printf("    TRACE INVALID by the 1 +- 0.05 rule: stage p99 shares sum to %.3f (stage tails do not coincide; README, layer predictions)\n", s)
		}
	}
	if res.TraceFile != "" {
		fmt.Printf("    trace: %s\n", res.TraceFile)
	}
	for _, f := range res.Failures {
		fmt.Printf("    FAILURE: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+workloadNames()+" (default: all, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed of the keys and the op stream")
		seconds  = flag.Float64("seconds", 12, "measured seconds per run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run and per-layer metrics")
		short    = flag.Bool("short", false, "smoke run: about 1 s per phase")
		out      = flag.String("o", "", "write the result JSON here (default with no -workload: "+outDir+"/result.json)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		fault    = flag.String("selftest-fault", "", "make the gate fail on purpose: verify | micro")
		nospans  = flag.Bool("unspanned", false, "traced run without client spans (the fallback after two span-race crashes)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if _, err := os.Stat(microRefPath); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: run from the repository root: %v\n", err)
		os.Exit(2)
	}
	o := options{
		seed: *seed, seconds: *seconds, fault: *fault, unspanned: *nospans,
		scratch: scratchDir, outDir: outDir, refPath: microRefPath,
	}
	if *short {
		o.smoke = time.Second
	}
	child := os.Getenv(childEnv)
	if child != "" {
		o.scratch = child
	}
	file := newResultFile(o)
	ok := true
	run := func(w *workloadDef, trace bool) *workloadResult {
		o.trace = trace
		runIt := runWorkload
		if trace && child == "" {
			runIt = runTraced
		}
		res, err := runIt(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		ok = ok && res.Correct
		if prev := file.Workloads[w.name]; prev != nil {
			prev.merge(res)
		} else {
			file.Workloads[w.name] = res
		}
		return res
	}

	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		for i := range workloads {
			run(&workloads[i], false)
			run(&workloads[i], true)
			printWorkload(workloads[i].name, file.Workloads[workloads[i].name])
		}
	} else {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, workloadNames())
			os.Exit(2)
		}
		printWorkload(w.name, run(w, *trace != 0))
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("result: %s\n", *out)
	}
	code := 0
	if !ok {
		fmt.Println("FAIL: the correctness gate found violations")
		code = 1
	}
	if *workload != "" {
		printContractLine(file.Workloads[*workload])
	}
	os.Exit(code)
}

// printContractLine prints the driver's result object as the last line of
// standard output.
func printContractLine(res *workloadResult) {
	metrics := res.EndToEnd
	if metrics == nil {
		metrics = res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, v := range metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}
