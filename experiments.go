package pmemlog

import (
	"fmt"

	"pmemlog/internal/bench"
	"pmemlog/internal/core"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/whisper"
)

// Params sizes an experiment run. The paper's footprints (256 MB – 1 GB)
// are scaled down; only relative results are reported, and the access
// patterns are unchanged.
type Params struct {
	Elements      int // microbenchmark structure size
	TxnsPerThread int
	Values        bench.ValueKind
	Seed          int64

	WhisperRecords int
	WhisperTxns    int

	LogBytes         uint64 // 0 = paper default (4 MB)
	LogBufferEntries int    // -1 = paper default (15)
	NVRAMBytes       uint64 // 0 = default

	// L2Bytes scales the shared cache. The paper's footprints (256 MB –
	// 1 GB) dwarf its 8 MB L2; scaled-down runs must preserve the
	// footprint/cache ratio or the non-pers baseline becomes an in-cache
	// workload the paper never measured. 0 = Table II 8 MB.
	L2Bytes uint64

	// PerThreadLogs switches the hardware designs to distributed
	// per-thread logs (Section III-F; the paper's future-work evaluation).
	PerThreadLogs bool

	// FwbScanInterval overrides the derived FWB scan interval in cycles
	// (0 = the Section IV-D law).
	FwbScanInterval uint64
}

// QuickParams runs in seconds (CI-sized): ~1-2 MB footprints over a
// 256 KB L2, preserving the paper's out-of-cache working-set regime.
func QuickParams() Params {
	return Params{
		Elements: 16384, TxnsPerThread: 150, Seed: 42,
		WhisperRecords: 8192, WhisperTxns: 150,
		LogBufferEntries: -1,
		L2Bytes:          256 << 10,
		LogBytes:         1 << 20,
	}
}

// FullParams is the report-quality size used by cmd/experiments -full:
// ~16-32 MB footprints over a 2 MB L2.
func FullParams() Params {
	return Params{
		Elements: 131072, TxnsPerThread: 400, Seed: 42,
		WhisperRecords: 65536, WhisperTxns: 400,
		LogBufferEntries: -1,
		L2Bytes:          2 << 20,
		NVRAMBytes:       256 << 20,
	}
}

// Config is the machine p describes for one design point: Table II with
// p's log, cache and NVRAM sizes applied.
func (p Params) Config(mode Mode, threads int) Config {
	cfg := DefaultConfig(mode, threads)
	if p.LogBytes != 0 {
		cfg.LogBytes = p.LogBytes
	}
	if p.LogBufferEntries >= 0 {
		cfg.Memctl.LogBufferEntries = p.LogBufferEntries
	}
	if p.NVRAMBytes != 0 {
		cfg.NVRAMBytes = p.NVRAMBytes
	}
	if p.L2Bytes != 0 {
		cfg.Caches.L2.SizeBytes = p.L2Bytes
	}
	cfg.PerThreadLogs = p.PerThreadLogs
	cfg.FwbScanInterval = p.FwbScanInterval
	return cfg
}

// workload is the part of bench.Workload and whisper.Workload a cell needs.
type workload interface {
	Setup(s *System) error
	Run(ctx Ctx, thread int)
}

// micro builds the named microbenchmark at p's sizes.
func (p Params) micro(name string, threads int, seed int64) (bench.Workload, error) {
	return bench.New(name, bench.Config{
		Elements:      p.Elements,
		TxnsPerThread: p.TxnsPerThread,
		Threads:       threads,
		Values:        p.Values,
		Seed:          seed,
	})
}

// populate builds the (mode, threads) machine p describes and sets w up
// on it — how every harness entry point (run, trace) gets from a
// workload name to a machine ready to run.
func (p Params) populate(name string, w workload, mode Mode, threads int) (*System, error) {
	sys, err := NewSystem(p.Config(mode, threads))
	if err != nil {
		return nil, err
	}
	if err := w.Setup(sys); err != nil {
		return nil, err
	}
	sys.SetBenchName(name)
	return sys, nil
}

// runCell populates w and runs it to completion.
func (p Params) runCell(name string, w workload, mode Mode, threads int) (Run, error) {
	sys, err := p.populate(name, w, mode, threads)
	if err != nil {
		return Run{}, err
	}
	if err := sys.RunN(w.Run); err != nil {
		return Run{}, fmt.Errorf("%s/%s/%dt: %w", name, mode, threads, err)
	}
	return sys.Stats(), nil
}

// RunMicro executes one (microbenchmark, mode, threads) cell and returns
// its metrics.
func RunMicro(benchName string, mode Mode, threads int, p Params) (Run, error) {
	w, err := p.micro(benchName, threads, p.Seed)
	if err != nil {
		return Run{}, err
	}
	return p.runCell(benchName, w, mode, threads)
}

// RunWhisper executes one (kernel, mode, threads) cell.
func RunWhisper(kernel string, mode Mode, threads int, p Params) (Run, error) {
	w, err := whisper.New(kernel, whisper.Config{
		Records:       p.WhisperRecords,
		TxnsPerThread: p.WhisperTxns,
		Threads:       threads,
		Seed:          p.Seed,
	})
	if err != nil {
		return Run{}, err
	}
	return p.runCell(kernel, w, mode, threads)
}

// RunMixedMicro runs several microbenchmarks CONCURRENTLY on one machine,
// threadsPer threads each — the multiprogrammed case where one centralized
// log is shared by unrelated transaction streams (Section II-C's
// multithreading discussion). Returns the combined run metrics.
func RunMixedMicro(benchNames []string, mode Mode, threadsPer int, p Params) (Run, error) {
	total := len(benchNames) * threadsPer
	sys, err := NewSystem(p.Config(mode, total))
	if err != nil {
		return Run{}, err
	}
	type slot struct {
		w     bench.Workload
		local int
	}
	plan := make([]slot, total)
	for g, name := range benchNames {
		w, err := p.micro(name, threadsPer, p.Seed+int64(g))
		if err != nil {
			return Run{}, err
		}
		if err := w.Setup(sys); err != nil {
			return Run{}, err
		}
		for i := 0; i < threadsPer; i++ {
			plan[g*threadsPer+i] = slot{w: w, local: i}
		}
	}
	sys.SetBenchName("mixed")
	err = sys.RunN(func(ctx Ctx, id int) {
		plan[id].w.Run(ctx, plan[id].local)
	})
	if err != nil {
		return Run{}, err
	}
	return sys.Stats(), nil
}

// MicroBenchNames lists the Table III microbenchmarks.
func MicroBenchNames() []string { return bench.Names() }

// WhisperNames lists the WHISPER kernels.
func WhisperNames() []string { return whisper.Names() }

// FigureModes is the set of designs plotted in Figures 6-9: every design
// (unsafe-base is derived from sw-ulog/sw-rlog at reporting time).
func FigureModes() []Mode { return AllModes() }

// RunMicroGrid runs every (bench, mode, threads) combination and indexes
// the results. progress (optional) is called before each cell.
func RunMicroGrid(benches []string, threadCounts []int, modes []Mode, p Params,
	progress func(bench string, mode Mode, threads int)) (*RunSet, error) {
	return runGrid(RunMicro, benches, threadCounts, modes, p, progress)
}

// RunWhisperGrid runs every (kernel, mode) combination at a fixed thread
// count (the paper reports WHISPER at one configuration).
func RunWhisperGrid(kernels []string, threads int, modes []Mode, p Params,
	progress func(kernel string, mode Mode, threads int)) (*RunSet, error) {
	return runGrid(RunWhisper, kernels, []int{threads}, modes, p, progress)
}

func runGrid(run func(string, Mode, int, Params) (Run, error), names []string, threadCounts []int,
	modes []Mode, p Params, progress func(string, Mode, int)) (*RunSet, error) {
	rs := NewRunSet()
	for _, name := range names {
		for _, th := range threadCounts {
			for _, m := range modes {
				if progress != nil {
					progress(name, m, th)
				}
				r, err := run(name, m, th, p)
				if err != nil {
					return nil, err
				}
				rs.Put(r)
			}
		}
	}
	return rs, nil
}

// gridTable lays out one row per benchmark and thread count (those with
// an unsafe-base run) and one column per mode, each cell metric(run,
// unsafe-base run) or "-" when that mode's run is missing.
func gridTable(rs *RunSet, threadCounts []int, modes []Mode,
	metric func(r, base Run) float64) *Table {

	header := []string{"benchmark"}
	for _, m := range modes {
		header = append(header, m.String())
	}
	t := &Table{Header: header}
	for _, b := range rs.Benchmarks() {
		for _, th := range threadCounts {
			base, ok := rs.UnsafeBase(b, th)
			if !ok {
				continue
			}
			row := []interface{}{fmt.Sprintf("%s-%dt", b, th)}
			for _, m := range modes {
				r, ok := rs.Get(b, m.String(), th)
				if !ok {
					row = append(row, "-")
					continue
				}
				row = append(row, metric(r, base))
			}
			t.Add(row...)
		}
	}
	return t
}

// Fig6 builds the transaction-throughput-speedup table (normalized to
// unsafe-base; higher is better).
func Fig6(rs *RunSet, threadCounts []int, modes []Mode) *Table {
	return gridTable(rs, threadCounts, modes, func(r, base Run) float64 { return r.Speedup(base) })
}

// Fig7IPC builds the IPC-speedup table (normalized to unsafe-base).
func Fig7IPC(rs *RunSet, threadCounts []int, modes []Mode) *Table {
	return gridTable(rs, threadCounts, modes, func(r, base Run) float64 { return r.IPCSpeedup(base) })
}

// Fig7Instr builds the instruction-count table (normalized to unsafe-base;
// lower is better).
func Fig7Instr(rs *RunSet, threadCounts []int, modes []Mode) *Table {
	return gridTable(rs, threadCounts, modes, func(r, base Run) float64 { return r.InstrRatio(base) })
}

// Fig8 builds the memory-dynamic-energy-reduction table (normalized to
// unsafe-base; higher is better).
func Fig8(rs *RunSet, threadCounts []int, modes []Mode) *Table {
	return gridTable(rs, threadCounts, modes, func(r, base Run) float64 { return r.EnergyReduction(base) })
}

// Fig9 builds the NVRAM-write-traffic-reduction table (normalized to
// unsafe-base; higher is better).
func Fig9(rs *RunSet, threadCounts []int, modes []Mode) *Table {
	return gridTable(rs, threadCounts, modes, func(r, base Run) float64 { return r.TrafficReduction(base) })
}

// Fig10 builds the WHISPER table: IPC, memory energy reduction, throughput
// speedup, and NVRAM write reduction for fwb vs unsafe-base.
func Fig10(rs *RunSet, threads int) *Table {
	t := &Table{Header: []string{"kernel", "ipc-speedup", "energy-reduction", "tput-speedup", "write-reduction", "vs-non-pers"}}
	for _, k := range rs.Benchmarks() {
		base, ok := rs.UnsafeBase(k, threads)
		if !ok {
			continue
		}
		r, ok := rs.Get(k, "fwb", threads)
		if !ok {
			continue
		}
		vsIdeal := 0.0
		if np, ok := rs.Get(k, "non-pers", threads); ok {
			vsIdeal = r.Speedup(np)
		}
		t.Add(k, r.IPCSpeedup(base), r.EnergyReduction(base), r.Speedup(base),
			r.TrafficReduction(base), vsIdeal)
	}
	return t
}

// Fig11aPoint runs the hash benchmark in fwb mode with one log-buffer size
// (Fig 11(a) sweeps {0, 8, 16, 32, 64, 128, 256}).
func Fig11aPoint(entries int, threads int, p Params) (Run, error) {
	p.LogBufferEntries = entries
	return RunMicro("hash", FWB, threads, p)
}

// Fig11aSizes is the paper's log-buffer sweep (15 is the implementation's
// persistence-bounded size).
func Fig11aSizes() []int { return []int{0, 8, 15, 32, 64, 128, 256} }

// Fig11b returns the FWB scan interval (cycles) required for each log
// size — the paper's frequency law (Section IV-D), e.g. ~3M cycles at 4 MB.
func Fig11b(logSizesBytes []uint64) *Table {
	t := &Table{Header: []string{"log-size-KB", "scan-interval-cycles"}}
	nv := DefaultConfig(FWB, 1).NVRAM
	for _, sz := range logSizesBytes {
		logCfg := nvlog.Config{Base: 0, SizeBytes: sz, Style: nvlog.UndoRedo}
		interval := core.DeriveScanInterval(logCfg, nv)
		t.Add(int(sz>>10), interval)
	}
	return t
}

// Fig11bSizes is the paper's log-size sweep (64 KB .. 16 MB).
func Fig11bSizes() []uint64 {
	var out []uint64
	for kb := uint64(64); kb <= 16<<10; kb *= 2 {
		out = append(out, kb<<10)
	}
	return out
}

// Table1 summarizes the hardware overhead of the design on the configured
// machine (paper Table I). Values derive from the actual configuration:
// the log buffer is LogBufferEntries cache-line slots plus per-slot valid
// masks, and the fwb bits cost one bit per cache line at every level.
func Table1(cfg Config) *Table {
	t := &Table{Header: []string{"mechanism", "logic", "size-bytes"}}
	t.Add("Transaction ID register", "flip-flops", 1)
	t.Add("Log head pointer register", "flip-flops", 8)
	t.Add("Log tail pointer register", "flip-flops", 8)
	logBufBytes := cfg.Memctl.LogBufferEntries*mem.LineSize + cfg.Memctl.LogBufferEntries*4 // slots + valid masks/tags
	t.Add("Log buffer (optional)", "SRAM", logBufBytes)
	l1Lines := int(cfg.Caches.L1.SizeBytes) / mem.LineSize * cfg.Threads
	l2Lines := int(cfg.Caches.L2.SizeBytes) / mem.LineSize
	t.Add("Fwb tag bits (L1s)", "SRAM", (l1Lines+7)/8)
	t.Add("Fwb tag bits (L2)", "SRAM", (l2Lines+7)/8)
	return t
}

// Table2 dumps the machine configuration (paper Table II).
func Table2(cfg Config) *Table {
	t := &Table{Header: []string{"component", "configuration"}}
	t.Add("Cores", fmt.Sprintf("%d threads, %.1f GHz", cfg.Threads, cfg.CPU.ClockGHz))
	t.Add("L1D", fmt.Sprintf("%d KB, %d-way, %d B lines, %d cycles",
		cfg.Caches.L1.SizeBytes>>10, cfg.Caches.L1.Ways, mem.LineSize, cfg.Caches.L1.HitCycles))
	t.Add("L2", fmt.Sprintf("%d MB, %d-way, %d B lines, %d cycles",
		cfg.Caches.L2.SizeBytes>>20, cfg.Caches.L2.Ways, mem.LineSize, cfg.Caches.L2.HitCycles))
	t.Add("Memory controller", fmt.Sprintf("%d/%d-entry read/write queues, %d-entry WCB, %d-entry log buffer",
		cfg.Memctl.ReadQueue, cfg.Memctl.WriteQueue, cfg.Memctl.WCBEntries, cfg.Memctl.LogBufferEntries))
	t.Add("NVRAM", fmt.Sprintf("%d MB, %d banks, %d B rows", cfg.NVRAMBytes>>20, cfg.NVRAM.Banks, cfg.NVRAM.RowBytes))
	t.Add("NVRAM timing", fmt.Sprintf("row hit %d cyc, read conflict %d cyc, write conflict %d cyc",
		cfg.NVRAM.RowHitCycles, cfg.NVRAM.ReadMissCycles, cfg.NVRAM.WriteMissCycles))
	t.Add("NVRAM energy", fmt.Sprintf("rb r/w %.2f/%.2f pJ/bit, array r/w %.2f/%.2f pJ/bit",
		cfg.NVRAM.RowBufReadPJPerBit, cfg.NVRAM.RowBufWritePJPerBit,
		cfg.NVRAM.ArrayReadPJPerBit, cfg.NVRAM.ArrayWritePJPerBit))
	t.Add("Circular log", fmt.Sprintf("%d KB (%d entries of %d B)",
		cfg.LogBytes>>10, (cfg.LogBytes-nvlog.MetaSize)/nvlog.FullEntrySize, nvlog.FullEntrySize))
	return t
}

// Table3 lists the microbenchmarks (paper Table III).
func Table3() *Table {
	t := &Table{Header: []string{"name", "description"}}
	t.Add("hash", "open-chain hash table: search; insert if absent, remove if found")
	t.Add("rbtree", "red-black tree: search; insert if absent, remove if found")
	t.Add("sps", "random swaps between entries of a vector")
	t.Add("btree", "B+ tree: search; insert if absent, remove if found")
	t.Add("ssca2", "transactional SSCA 2.2 kernels over a scale-free graph")
	return t
}
