package pmemlog

import (
	"fmt"

	"pmemlog/internal/core"
	"pmemlog/internal/nvlog"
)

// LifetimeReport reproduces the paper's NVRAM-lifetime arithmetic
// (Section III-F): how often a statically-allocated log cell is
// overwritten at worst-case append rate, and how long it takes to exhaust
// a given write endurance — the paper's "64K entries (4 MB) ... 15 days"
// example, which is "plenty of time for conventional NVRAM wear-leveling
// schemes to trigger".
type LifetimeReport struct {
	LogEntries        uint64
	EntryRewriteNS    float64 // time between overwrites of one log cell
	Endurance         uint64  // writes per cell
	DaysToWearOut     float64 // with a statically allocated log region
	ScanIntervalCycle uint64  // the FWB interval the log size implies
}

// Lifetime computes the report for a machine configuration and endurance
// (the paper uses 1e8 writes for PCM).
func Lifetime(cfg Config, endurance uint64) LifetimeReport {
	logCfg := nvlog.Config{Base: cfg.NVRAMBase, SizeBytes: cfg.LogBytes, Style: nvlog.UndoRedo}
	entries := logCfg.Capacity()
	perEntryCycles := cfg.NVRAM.AvgAppendCyclesPerLine() *
		float64(logCfg.Style.EntrySize()) / 64.0
	rewriteNS := float64(entries) * perEntryCycles / cfg.CPU.ClockGHz
	days := rewriteNS * float64(endurance) / 1e9 / 86400
	return LifetimeReport{
		LogEntries:        entries,
		EntryRewriteNS:    rewriteNS,
		Endurance:         endurance,
		DaysToWearOut:     days,
		ScanIntervalCycle: core.DeriveScanInterval(logCfg, cfg.NVRAM),
	}
}

// String renders the report in the paper's terms.
func (r LifetimeReport) String() string {
	return fmt.Sprintf(
		"log of %d entries: each cell overwritten every %.1f us at worst-case append rate;\n"+
			"with %.0e-write endurance a statically allocated cell lasts %.1f days\n"+
			"(ample time for start-gap style wear leveling to rotate the region);\n"+
			"implied FWB scan interval: %d cycles",
		r.LogEntries, r.EntryRewriteNS/1e3, float64(r.Endurance), r.DaysToWearOut, r.ScanIntervalCycle)
}

// LogBufferBound re-exports the Section IV-C persistence bound on the log
// buffer size for a configuration (15 entries on the Table II machine).
func LogBufferBound(cfg Config) int {
	return core.LogBufferBound(cfg.Caches.L1.HitCycles, cfg.Caches.L2.HitCycles, cfg.Memctl.QueueCycles)
}
