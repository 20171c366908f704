package pmemlog

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section VI). Each benchmark executes the simulations that regenerate
// the corresponding result and reports the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` reproduces the whole evaluation:
//
//	BenchmarkTable1HardwareOverhead  Table I   (bytes of added state)
//	BenchmarkTable2Configuration     Table II  (sanity of the machine)
//	BenchmarkTable3Microbenchmarks   Table III (one run per benchmark)
//	BenchmarkFig6Throughput          Fig 6     (fwb speedup vs unsafe-base)
//	BenchmarkFig7IPC                 Fig 7     (IPC + instruction ratios)
//	BenchmarkFig8Energy              Fig 8     (memory energy reduction)
//	BenchmarkFig9Traffic             Fig 9     (NVRAM write reduction)
//	BenchmarkFig10Whisper            Fig 10    (WHISPER, fwb vs unsafe-base)
//	BenchmarkFig11aLogBuffer         Fig 11a   (log buffer sweep)
//	BenchmarkFig11bFwbFreq           Fig 11b   (scan interval law)
//
// Plus ablations for the design choices DESIGN.md calls out.

import (
	"testing"

	"pmemlog/internal/bench"
	"pmemlog/internal/core"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
)

// benchParams is small enough for tight benchmark iterations while staying
// in the out-of-cache regime.
func benchParams() Params {
	p := QuickParams()
	p.Elements = 8192
	p.TxnsPerThread = 100
	p.WhisperRecords = 2048
	p.WhisperTxns = 100
	p.L2Bytes = 128 << 10
	p.LogBytes = 512 << 10
	return p
}

func mustRunMicro(b *testing.B, name string, m Mode, threads int, p Params) Run {
	b.Helper()
	r, err := RunMicro(name, m, threads, p)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkTable1HardwareOverhead(b *testing.B) {
	cfg := DefaultConfig(FWB, 8)
	var logBuf int
	for i := 0; i < b.N; i++ {
		t := Table1(cfg)
		logBuf = len(t.Rows)
	}
	b.ReportMetric(float64(logBuf), "rows")
	b.ReportMetric(float64(cfg.Memctl.LogBufferEntries*mem.LineSize), "logbuf-bytes")
}

func BenchmarkTable2Configuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(FWB, 8)
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = sys
	}
}

func BenchmarkTable3Microbenchmarks(b *testing.B) {
	p := benchParams()
	for _, name := range MicroBenchNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := mustRunMicro(b, name, FWB, 1, p)
				b.ReportMetric(r.Throughput(), "tx/s")
			}
		})
	}
}

// fig6Cell runs the three designs Fig 6's headline compares and reports
// fwb's speedups.
func BenchmarkFig6Throughput(b *testing.B) {
	p := benchParams()
	for _, name := range MicroBenchNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := mustRunMicro(b, name, SWRedo, 1, p)
				u := mustRunMicro(b, name, SWUndo, 1, p)
				if u.Throughput() > base.Throughput() {
					base = u // unsafe-base = better of the two
				}
				fwb := mustRunMicro(b, name, FWB, 1, p)
				clwb := mustRunMicro(b, name, SWUndoClwb, 1, p)
				b.ReportMetric(fwb.Speedup(base), "x-vs-unsafe")
				b.ReportMetric(fwb.Speedup(clwb), "x-vs-undo-clwb")
			}
		})
	}
}

func BenchmarkFig7IPC(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		base := mustRunMicro(b, "hash", SWRedo, 1, p)
		fwb := mustRunMicro(b, "hash", FWB, 1, p)
		np := mustRunMicro(b, "hash", NonPers, 1, p)
		b.ReportMetric(fwb.IPCSpeedup(base), "ipc-x-vs-unsafe")
		b.ReportMetric(base.InstrRatio(np), "sw-instr-x-vs-nonpers")
		b.ReportMetric(fwb.InstrRatio(np), "fwb-instr-x-vs-nonpers")
	}
}

func BenchmarkFig8Energy(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		base := mustRunMicro(b, "hash", SWRedo, 1, p)
		fwb := mustRunMicro(b, "hash", FWB, 1, p)
		clwb := mustRunMicro(b, "hash", SWUndoClwb, 1, p)
		b.ReportMetric(fwb.EnergyReduction(base), "fwb-energy-reduction")
		b.ReportMetric(clwb.EnergyReduction(base), "clwb-energy-reduction")
	}
}

func BenchmarkFig9Traffic(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		base := mustRunMicro(b, "hash", SWRedo, 1, p)
		fwb := mustRunMicro(b, "hash", FWB, 1, p)
		clwb := mustRunMicro(b, "hash", SWUndoClwb, 1, p)
		b.ReportMetric(fwb.TrafficReduction(base), "fwb-write-reduction")
		b.ReportMetric(clwb.TrafficReduction(base), "clwb-write-reduction")
	}
}

func BenchmarkFig10Whisper(b *testing.B) {
	p := benchParams()
	for _, kernel := range WhisperNames() {
		kernel := kernel
		b.Run(kernel, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := RunWhisper(kernel, SWRedo, 2, p)
				if err != nil {
					b.Fatal(err)
				}
				fwb, err := RunWhisper(kernel, FWB, 2, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(fwb.Speedup(base), "x-vs-unsafe")
				b.ReportMetric(fwb.TrafficReduction(base), "write-reduction")
			}
		})
	}
}

func BenchmarkFig11aLogBuffer(b *testing.B) {
	p := benchParams()
	for _, entries := range Fig11aSizes() {
		entries := entries
		b.Run(itoaInt(entries)+"entries", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := Fig11aPoint(entries, 1, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Throughput(), "tx/s")
			}
		})
	}
}

func BenchmarkFig11bFwbFreq(b *testing.B) {
	nv := DefaultConfig(FWB, 1).NVRAM
	var last uint64
	for i := 0; i < b.N; i++ {
		for _, sz := range Fig11bSizes() {
			logCfg := nvlog.Config{Base: 0, SizeBytes: sz, Style: nvlog.UndoRedo}
			last = core.DeriveScanInterval(logCfg, nv)
		}
	}
	b.ReportMetric(float64(last), "cycles-at-16MB")
}

// --- Ablations (DESIGN.md §7) ---

// Ablation: hwl (clwb at commit) vs fwb (decoupled write-back) isolates
// the contribution of the FWB mechanism itself.
func BenchmarkAblationFwbVsHwl(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		hwl := mustRunMicro(b, "hash", HWL, 1, p)
		fwb := mustRunMicro(b, "hash", FWB, 1, p)
		b.ReportMetric(fwb.Speedup(hwl), "fwb-x-vs-hwl")
	}
}

// Ablation: log size vs throughput (a bigger log truncates and scans less
// often; Section III-F's capacity trade-off).
func BenchmarkAblationLogSize(b *testing.B) {
	for _, kb := range []uint64{128, 512, 2048} {
		kb := kb
		b.Run(itoaInt(int(kb))+"KB", func(b *testing.B) {
			p := benchParams()
			p.LogBytes = kb << 10
			for i := 0; i < b.N; i++ {
				r := mustRunMicro(b, "hash", FWB, 1, p)
				b.ReportMetric(r.Throughput(), "tx/s")
			}
		})
	}
}

// Ablation: string vs integer payloads (multi-line elements change the
// logging-to-data ratio, paper Section V).
func BenchmarkAblationValueKind(b *testing.B) {
	for _, vk := range []bench.ValueKind{bench.IntValues, bench.StrValues} {
		vk := vk
		b.Run(vk.String(), func(b *testing.B) {
			p := benchParams()
			p.Values = vk
			for i := 0; i < b.N; i++ {
				r := mustRunMicro(b, "hash", FWB, 1, p)
				b.ReportMetric(r.Throughput(), "tx/s")
			}
		})
	}
}

// Ablation: centralized vs distributed per-thread logs (Section III-F,
// the evaluation the paper leaves to future work).
func BenchmarkAblationLogPartitioning(b *testing.B) {
	for _, dist := range []bool{false, true} {
		dist := dist
		name := "centralized"
		if dist {
			name = "per-thread"
		}
		b.Run(name, func(b *testing.B) {
			p := benchParams()
			p.PerThreadLogs = dist
			for i := 0; i < b.N; i++ {
				r := mustRunMicro(b, "hash", FWB, 4, p)
				b.ReportMetric(r.Throughput(), "tx/s")
			}
		})
	}
}

// Ablation: FWB scan frequency around the Section IV-D law — scanning too
// often wastes cache bandwidth; the law's setting should be at or near the
// throughput plateau.
func BenchmarkAblationFwbInterval(b *testing.B) {
	for _, f := range []struct {
		name     string
		interval uint64
	}{
		{"hyperactive-2k-cycles", 2_000},
		{"frequent-20k-cycles", 20_000},
		{"law", 0}, // the Section IV-D derived interval
	} {
		f := f
		b.Run(f.name, func(b *testing.B) {
			p := benchParams()
			p.TxnsPerThread = 400
			p.FwbScanInterval = f.interval
			for i := 0; i < b.N; i++ {
				r := mustRunMicro(b, "hash", FWB, 1, p)
				b.ReportMetric(r.Throughput(), "tx/s")
				b.ReportMetric(float64(r.FwbScans), "scans")
			}
		})
	}
}

// Ablation: thread scaling of the full design.
func BenchmarkAblationThreadScaling(b *testing.B) {
	for _, th := range []int{1, 2, 4, 8} {
		th := th
		b.Run(itoaInt(th)+"t", func(b *testing.B) {
			p := benchParams()
			for i := 0; i < b.N; i++ {
				r := mustRunMicro(b, "hash", FWB, th, p)
				b.ReportMetric(r.Throughput(), "tx/s")
			}
		})
	}
}

// benchObsRun executes the hash microbenchmark with an event tracer
// attached, toggling whether it records. The Disabled/Enabled pair
// quantifies the observability tax on the whole pipeline: Disabled
// must stay within noise of BenchmarkSimulatorSpeed (the pre-tracer
// hot path), since the disabled fast path is one atomic load.
func benchObsRun(b *testing.B, enabled bool) {
	b.Helper()
	p := benchParams()
	p.TxnsPerThread = 200
	var txns, events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := bench.New("hash", bench.Config{
			Elements:      p.Elements,
			TxnsPerThread: p.TxnsPerThread,
			Threads:       1,
			Values:        p.Values,
			Seed:          p.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := NewSystem(p.Config(FWB, 1))
		if err != nil {
			b.Fatal(err)
		}
		tr := sys.AttachTracer(1 << 14)
		if err := w.Setup(sys); err != nil {
			b.Fatal(err)
		}
		if enabled {
			tr.Enable()
		}
		if err := sys.RunN(w.Run); err != nil {
			b.Fatal(err)
		}
		tr.Disable()
		txns += sys.Stats().Transactions
		events += tr.Emitted()
	}
	b.ReportMetric(float64(txns)/b.Elapsed().Seconds(), "sim-tx/s")
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkObsDisabled(b *testing.B) { benchObsRun(b, false) }
func BenchmarkObsEnabled(b *testing.B)  { benchObsRun(b, true) }

// TestObsDisabledPathAllocFree is the CI guard behind the benchmark
// pair: a disabled tracer's Emit — the call sprinkled through every
// hot loop — must not allocate.
func TestObsDisabledPathAllocFree(t *testing.T) {
	sys, err := NewSystem(benchParams().Config(FWB, 1))
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.AttachTracer(1 << 10) // attached, never enabled
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(0, 1, 1, 1, 1)
	}); allocs != 0 {
		t.Fatalf("disabled Emit allocates %.1f bytes/op, want 0", allocs)
	}
}

// Raw simulator speed: simulated transactions per wall-clock second.
func BenchmarkSimulatorSpeed(b *testing.B) {
	p := benchParams()
	p.TxnsPerThread = 200
	var txns uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mustRunMicro(b, "hash", FWB, 1, p)
		txns += r.Transactions
	}
	b.ReportMetric(float64(txns)/b.Elapsed().Seconds(), "sim-tx/s")
}

func itoaInt(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
