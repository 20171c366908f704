package pmemlog

import (
	"strings"
	"testing"
)

func TestLogBufferBoundIsThePapers15(t *testing.T) {
	cfg := DefaultConfig(FWB, 1)
	if got := LogBufferBound(cfg); got != 15 {
		t.Errorf("LogBufferBound = %d, want 15 (paper Section IV-C / VI)", got)
	}
	// The default configuration must respect its own bound.
	if cfg.Memctl.LogBufferEntries > LogBufferBound(cfg) {
		t.Errorf("default log buffer (%d) exceeds the persistence bound (%d)",
			cfg.Memctl.LogBufferEntries, LogBufferBound(cfg))
	}
}

func TestLifetimeArithmetic(t *testing.T) {
	cfg := DefaultConfig(FWB, 1) // 4 MB log
	r := Lifetime(cfg, 1e8)
	// The paper: 64K x 200ns-class rewrites with 1e8 endurance ≈ 15 days.
	// Our 4 MB log holds 128K 32-byte records; each append costs ~55
	// cycles (22 ns), so a cell is rewritten every ~2.9 ms and lasts
	// ~3.3 days — same order, same conclusion (wear leveling has ample
	// time to rotate).
	if r.LogEntries != 131070 {
		t.Errorf("entries = %d", r.LogEntries)
	}
	if r.DaysToWearOut < 1 || r.DaysToWearOut > 100 {
		t.Errorf("days to wear out = %.2f, want single-digit-to-tens days", r.DaysToWearOut)
	}
	// Bigger log => longer cell lifetime, linearly.
	cfg2 := cfg
	cfg2.LogBytes = 8 << 20
	r2 := Lifetime(cfg2, 1e8)
	if r2.DaysToWearOut < 1.9*r.DaysToWearOut {
		t.Errorf("lifetime did not scale with log size: %.2f vs %.2f", r2.DaysToWearOut, r.DaysToWearOut)
	}
	if !strings.Contains(r.String(), "wear leveling") {
		t.Error("report text incomplete")
	}
}

func TestLogRegionWearIsUniform(t *testing.T) {
	// Run a workload with wear tracking and confirm the circular log
	// spreads writes evenly (no hot cell), the property the lifetime
	// argument rests on.
	p := tinyParams()
	cfg := p.Config(FWB, 1)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Controller().NVRAM().SetWearTracking(true)
	a, _ := sys.Heap().Alloc(8)
	err = sys.RunN(func(ctx Ctx, id int) {
		for i := 0; i < 2000; i++ {
			ctx.TxBegin()
			ctx.Store(a, Word(i))
			ctx.TxCommit()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nv := sys.Controller().NVRAM()
	max := nv.MaxLineWear()
	if max == 0 {
		t.Fatal("no wear recorded")
	}
	// 2000 txns x ~3 records x 32 B = ~192KB of appends over a 256 KB log:
	// under one full pass, so no line should be written many times more
	// than its neighbours (metadata line aside, which is rewritten on
	// every sync).
	metaWear := nv.WearOf(sys.LogBases()[0])
	if max > metaWear && max > 8 {
		t.Errorf("hot log cell: max wear %d (meta %d)", max, metaWear)
	}
}
