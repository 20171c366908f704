package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRunDerivedMetrics(t *testing.T) {
	r := Run{Cycles: 1000, Instructions: 1500, Transactions: 50, Seconds: 0.5,
		MemEnergyPJ: 200, NVRAMWriteBytes: 4000}
	if got := r.IPC(); got != 1.5 {
		t.Errorf("IPC = %v", got)
	}
	if got := r.Throughput(); got != 100 {
		t.Errorf("throughput = %v", got)
	}
	base := Run{Cycles: 2000, Instructions: 3000, Transactions: 50, Seconds: 1,
		MemEnergyPJ: 400, NVRAMWriteBytes: 8000}
	if got := r.Speedup(base); got != 2 {
		t.Errorf("speedup = %v", got)
	}
	if got := r.IPCSpeedup(base); got != 1 {
		t.Errorf("IPC speedup = %v", got)
	}
	if got := r.InstrRatio(base); got != 0.5 {
		t.Errorf("instr ratio = %v", got)
	}
	if got := r.EnergyReduction(base); got != 2 {
		t.Errorf("energy reduction = %v", got)
	}
	if got := r.TrafficReduction(base); got != 2 {
		t.Errorf("traffic reduction = %v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var zero Run
	if zero.IPC() != 0 || zero.Throughput() != 0 {
		t.Error("zero run produced nonzero metrics")
	}
	r := Run{Transactions: 1, Seconds: 1}
	if got := r.Speedup(zero); got != 0 {
		t.Errorf("speedup vs zero base = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean(1,4) = %v", got)
	}
	if Geomean(nil) != 0 {
		t.Error("geomean(nil) != 0")
	}
	// Zeros are skipped, not poisoning the mean.
	got = Geomean([]float64{0, 2, 8})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(0,2,8) = %v, want 4", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"bench", "speedup"}}
	tb.Add("hash", 1.86)
	tb.Add("rbtree", 2)
	out := tb.String()
	if !strings.Contains(out, "hash") || !strings.Contains(out, "1.860") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("table has %d lines", len(lines))
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "bench,speedup\n") || !strings.Contains(csv, "hash,1.860") {
		t.Errorf("csv output:\n%s", csv)
	}
}

func TestRunSetUnsafeBase(t *testing.T) {
	s := NewRunSet()
	s.Put(Run{Benchmark: "hash", Mode: "sw-ulog", Threads: 1, Transactions: 10, Seconds: 1})
	s.Put(Run{Benchmark: "hash", Mode: "sw-rlog", Threads: 1, Transactions: 20, Seconds: 1})
	base, ok := s.UnsafeBase("hash", 1)
	if !ok || base.Mode != "sw-rlog" {
		t.Errorf("unsafe-base picked %q (ok=%v), want sw-rlog", base.Mode, ok)
	}
	// With only one variant present, it is used.
	s2 := NewRunSet()
	s2.Put(Run{Benchmark: "sps", Mode: "sw-ulog", Threads: 2, Transactions: 5, Seconds: 1})
	base2, ok := s2.UnsafeBase("sps", 2)
	if !ok || base2.Mode != "sw-ulog" {
		t.Errorf("single-variant unsafe-base: %q ok=%v", base2.Mode, ok)
	}
	if _, ok := s2.UnsafeBase("nosuch", 1); ok {
		t.Error("unsafe-base for missing benchmark reported ok")
	}
}

func TestRunSetBenchmarks(t *testing.T) {
	s := NewRunSet()
	s.Put(Run{Benchmark: "b", Mode: "m", Threads: 1})
	s.Put(Run{Benchmark: "a", Mode: "m", Threads: 1})
	s.Put(Run{Benchmark: "a", Mode: "m2", Threads: 2})
	got := s.Benchmarks()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("benchmarks = %v", got)
	}
}
