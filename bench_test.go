package pmemlog

// Benchmarks for what cmd/experiments does not regenerate: ablations of
// the design choices DESIGN.md §7 calls out, the observability tax, and
// raw simulator speed. Every table and figure of the paper's evaluation
// (Section VI) has one driver, cmd/experiments.

import (
	"strconv"
	"testing"

	"pmemlog/internal/bench"
)

// benchParams is small enough for tight benchmark iterations while staying
// in the out-of-cache regime.
func benchParams() Params {
	p := QuickParams()
	p.Elements = 8192
	p.TxnsPerThread = 100
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
		b.Run(strconv.Itoa(int(kb))+"KB", func(b *testing.B) {
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
		b.Run(strconv.Itoa(th)+"t", func(b *testing.B) {
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
