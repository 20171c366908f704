package pmemlog

import (
	"errors"
	"strings"
	"testing"
)

func tinyParams() Params {
	p := QuickParams()
	p.Elements = 8192 // footprint exceeds the 128 KB test L2 (out-of-cache regime)
	p.TxnsPerThread = 80
	p.WhisperRecords = 2048
	p.WhisperTxns = 80
	p.LogBytes = 256 << 10
	p.L2Bytes = 128 << 10
	return p
}

func TestPublicQuickstart(t *testing.T) {
	cfg := DefaultConfig(FWB, 1)
	cfg.NVRAMBytes = 16 << 20
	cfg.LogBytes = 64 << 10
	cfg.GrowReserveBytes = 1 << 20
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Heap().Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RunN(func(ctx Ctx, id int) {
		ctx.TxBegin()
		ctx.Store(a, 42)
		ctx.TxCommit()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Peek(a) == 42 {
		// The value may still be cached (steal pending) — both states are
		// legal; what matters is Stats and that no error occurred.
		t.Log("store already persisted")
	}
	if sys.Stats().Transactions != 1 {
		t.Error("transaction not counted")
	}
}

func TestParseAndListModes(t *testing.T) {
	if len(AllModes()) != 8 {
		t.Errorf("expected 8 modes, got %d", len(AllModes()))
	}
	m, err := ParseMode("fwb")
	if err != nil || m != FWB {
		t.Errorf("ParseMode(fwb) = %v, %v", m, err)
	}
}

// TestUnsafeBoundHoldsWhenLogWraps: hw-unsafe is the paper's "hardware
// logging with no persistence guarantee", the bound fwb is judged against.
// At a 32 KiB log every Table III benchmark wraps, and the bound must still
// be one: no more cycles and no more log bytes than fwb in any cell.
func TestUnsafeBoundHoldsWhenLogWraps(t *testing.T) {
	p := QuickParams()
	p.LogBytes = 32 << 10
	threads := []int{1, 2}
	rs, err := RunMicroGrid(MicroBenchNames(), threads, []Mode{HWUnsafe, FWB}, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range MicroBenchNames() {
		for _, th := range threads {
			unsafe, _ := rs.Get(b, HWUnsafe.String(), th)
			fwb, _ := rs.Get(b, FWB.String(), th)
			if unsafe.Cycles > fwb.Cycles {
				t.Errorf("%s/%dt: hw-unsafe %d cycles > fwb %d", b, th, unsafe.Cycles, fwb.Cycles)
			}
			if unsafe.LogWriteBytes > fwb.LogWriteBytes {
				t.Errorf("%s/%dt: hw-unsafe %d log bytes > fwb %d", b, th, unsafe.LogWriteBytes, fwb.LogWriteBytes)
			}
		}
	}
}

func TestRunMicroSingleCell(t *testing.T) {
	p := tinyParams()
	r, err := RunMicro("hash", FWB, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Transactions != uint64(p.TxnsPerThread) || r.Benchmark != "hash" || r.Mode != "fwb" {
		t.Errorf("run: %+v", r)
	}
}

func TestRunWhisperSingleCell(t *testing.T) {
	p := tinyParams()
	r, err := RunWhisper("ycsb", FWB, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Transactions != uint64(2*p.WhisperTxns) {
		t.Errorf("transactions = %d", r.Transactions)
	}
}

// One seeded workload drives the full design sweep at two threads: every
// design commits the same transactions, and hardware logging runs fewer
// instructions than software undo logging.
func TestTraceSweepAcrossDesigns(t *testing.T) {
	p := tinyParams()
	want := uint64(2 * p.TxnsPerThread)
	var undoClwb Run
	for _, mode := range []Mode{SWUndoClwb, HWL, FWB} {
		r, err := RunMicro("hash", mode, 2, p)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.Transactions != want {
			t.Fatalf("%s: committed %d txns, want %d", mode, r.Transactions, want)
		}
		switch mode {
		case SWUndoClwb:
			undoClwb = r
		case HWL:
			if r.Instructions >= undoClwb.Instructions {
				t.Errorf("hwl instructions (%d) not below undo-clwb (%d) on the same workload",
					r.Instructions, undoClwb.Instructions)
			}
		}
	}
}

// TestFigureShapes is the headline reproduction check at test scale: the
// paper's qualitative results must hold on a small grid.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run")
	}
	p := tinyParams()
	modes := AllModes()
	rs, err := RunMicroGrid([]string{"hash", "sps"}, []int{1}, modes, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"hash", "sps"} {
		base, ok := rs.UnsafeBase(b, 1)
		if !ok {
			t.Fatalf("no unsafe-base for %s", b)
		}
		fwb, _ := rs.Get(b, "fwb", 1)
		hwl, _ := rs.Get(b, "hwl", 1)
		undoClwb, _ := rs.Get(b, "undo-clwb", 1)
		redoClwb, _ := rs.Get(b, "redo-clwb", 1)
		nonPers, _ := rs.Get(b, "non-pers", 1)

		// Paper Fig 6: fwb beats the persistent software designs.
		if fwb.Speedup(base) <= undoClwb.Speedup(base) {
			t.Errorf("%s: fwb (%.2f) not faster than undo-clwb (%.2f)",
				b, fwb.Speedup(base), undoClwb.Speedup(base))
		}
		if fwb.Speedup(base) <= redoClwb.Speedup(base) {
			t.Errorf("%s: fwb (%.2f) not faster than redo-clwb (%.2f)",
				b, fwb.Speedup(base), redoClwb.Speedup(base))
		}
		// Paper Fig 6: sw persistent designs lose throughput vs non-pers.
		if undoClwb.Speedup(nonPers) >= 1 {
			t.Errorf("%s: undo-clwb not slower than non-pers", b)
		}
		// Paper Fig 7: sw logging inflates instructions; fwb stays ~30%.
		if undoClwb.InstrRatio(nonPers) < 1.3 {
			t.Errorf("%s: sw instr ratio %.2f too small", b, undoClwb.InstrRatio(nonPers))
		}
		// Same ops, different persistence machinery: hardware logging
		// runs fewer instructions than software undo logging.
		if hwl.Instructions >= undoClwb.Instructions {
			t.Errorf("%s: hwl instructions (%d) not below undo-clwb (%d)",
				b, hwl.Instructions, undoClwb.Instructions)
		}
		// fwb only pays tx_begin/tx_commit instrumentation (paper: ~30%
		// overall; small-transaction benchmarks sit higher).
		if ratio := fwb.InstrRatio(nonPers); ratio > 2.0 || ratio < 1.0 {
			t.Errorf("%s: fwb instr ratio %.2f outside (1.0, 2.0)", b, ratio)
		}
		// Paper Fig 9: fwb cuts NVRAM write traffic vs persistent sw.
		if fwb.NVRAMWriteBytes >= undoClwb.NVRAMWriteBytes {
			t.Errorf("%s: fwb writes (%d) not below undo-clwb (%d)",
				b, fwb.NVRAMWriteBytes, undoClwb.NVRAMWriteBytes)
		}
		t.Logf("%s: fwb speedup %.2fx vs unsafe-base, %.2fx vs best-sw-persistent, %.0f%% of non-pers",
			b, fwb.Speedup(base),
			fwb.Speedup(bestOf(undoClwb, redoClwb)),
			100*fwb.Speedup(nonPers))
	}

	// Figure tables render without error.
	for _, tab := range []*Table{
		Fig6(rs, []int{1}, modes), Fig7IPC(rs, []int{1}, modes),
		Fig7Instr(rs, []int{1}, modes), Fig8(rs, []int{1}, modes), Fig9(rs, []int{1}, modes),
	} {
		if !strings.Contains(tab.String(), "hash-1t") {
			t.Error("figure table missing rows")
		}
	}
}

func bestOf(a, b Run) Run {
	if a.Throughput() >= b.Throughput() {
		return a
	}
	return b
}

func TestFig11aMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	p := tinyParams()
	r0, err := Fig11aPoint(0, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	r15, err := Fig11aPoint(15, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: buffering improves throughput over the unbuffered design.
	if r15.Throughput() <= r0.Throughput() {
		t.Errorf("15-entry log buffer (%.0f tps) not faster than unbuffered (%.0f tps)",
			r15.Throughput(), r0.Throughput())
	}
}

func TestFig11bLaw(t *testing.T) {
	tab := Fig11b(Fig11bSizes())
	if len(tab.Rows) != len(Fig11bSizes()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Interval grows monotonically with log size.
	prev := ""
	_ = prev
	var last uint64
	for i, row := range tab.Rows {
		var v uint64
		if _, err := fmtSscan(row[1], &v); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if v <= last {
			t.Errorf("interval not increasing at row %d", i)
		}
		last = v
	}
}

func fmtSscan(s string, v *uint64) (int, error) {
	var x uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errors.New("not a number: " + s)
		}
		x = x*10 + uint64(c-'0')
	}
	*v = x
	return 1, nil
}

func TestTables(t *testing.T) {
	cfg := DefaultConfig(FWB, 8)
	if !strings.Contains(Table1(cfg).String(), "Log buffer") {
		t.Error("Table1 incomplete")
	}
	if !strings.Contains(Table2(cfg).String(), "NVRAM") {
		t.Error("Table2 incomplete")
	}
	if !strings.Contains(Table3().String(), "rbtree") {
		t.Error("Table3 incomplete")
	}
}

func TestCrashRecoveryThroughPublicAPI(t *testing.T) {
	cfg := DefaultConfig(FWB, 1)
	cfg.NVRAMBytes = 16 << 20
	cfg.LogBytes = 64 << 10
	cfg.GrowReserveBytes = 1 << 20
	cfg.TrackOracle = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sys.Heap().Alloc(8)
	sys.SetupCtx().Store(a, 1)
	sys.ScheduleCrash(50_000)
	err = sys.RunN(func(ctx Ctx, id int) {
		for i := 0; i < 10000; i++ {
			ctx.TxBegin()
			v := ctx.Load(a)
			ctx.Store(a, v+1)
			ctx.TxCommit()
		}
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	rep, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if bad := sys.VerifyRecovery(rep, 50_000); len(bad) != 0 {
		t.Fatalf("violations: %v", bad[0])
	}
}

// A multiprogrammed mix shares one machine (and, for hardware designs, one
// centralized log) across unrelated transaction streams.
func TestRunMixedMicro(t *testing.T) {
	p := tinyParams()
	p.TxnsPerThread = 40
	r, err := RunMixedMicro([]string{"hash", "sps"}, FWB, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Transactions != 4*40 {
		t.Errorf("mixed transactions = %d, want 160", r.Transactions)
	}
	if r.Benchmark != "mixed" {
		t.Errorf("benchmark label = %q", r.Benchmark)
	}
	// The same mix must also hold up under crash/recovery.
	total := r.Cycles
	cfg := p.Config(FWB, 4)
	cfg.TrackOracle = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = sys // (direct mixed-crash coverage lives in the sim tests; here we
	// only assert the mixed harness runs to completion deterministically)
	r2, err := RunMixedMicro([]string{"hash", "sps"}, FWB, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles != total {
		t.Errorf("mixed run nondeterministic: %d vs %d", r2.Cycles, total)
	}
}
