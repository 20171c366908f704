// Package pmemlog is a simulator-based reproduction of "Steal but No
// Force: Efficient Hardware Undo+Redo Logging for Persistent Memory
// Systems" (Ogleari, Miller, Zhao — HPCA 2018).
//
// It provides:
//
//   - A deterministic cycle-accounting multicore simulator with a
//     write-back write-allocate cache hierarchy, a memory controller with
//     a write-combining buffer and the paper's volatile log buffer, and a
//     PCM NVRAM DIMM model (Table II configuration).
//   - The paper's contribution in hardware-model form: HWL (hardware
//     undo+redo logging driven by cache-line old values and in-flight
//     stores) and FWB (the fwb-bit force-write-back scanner), plus a
//     circular torn-bit log in NVRAM and the four-step recovery handler.
//   - All eight designs the paper evaluates (non-pers, software undo/redo
//     with and without clwb, hardware undo/redo bounds, hwl, fwb).
//   - The five microbenchmarks of Table III and a WHISPER-like suite, and
//     harness functions that regenerate every table and figure.
//   - A sharded network KV service over the pipeline (internal/server,
//     cmd/pmserver, cmd/pmload): writes are acknowledged only after their
//     transactions commit and the shard's NVRAM DIMM image is durably on
//     disk; restarts re-attach and recover via System.Attach.
//
// Quick start:
//
//	cfg := pmemlog.DefaultConfig(pmemlog.FWB, 1)
//	sys, _ := pmemlog.NewSystem(cfg)
//	a, _ := sys.Heap().Alloc(8)
//	sys.RunN(func(ctx pmemlog.Ctx, id int) {
//	    ctx.TxBegin()
//	    ctx.Store(a, 42)
//	    ctx.TxCommit()
//	})
//	fmt.Println(sys.Stats().Throughput())
package pmemlog

import (
	"pmemlog/internal/mem"
	"pmemlog/internal/recovery"
	"pmemlog/internal/sim"
	"pmemlog/internal/stats"
	"pmemlog/internal/txn"
)

// Core type aliases: the public API surface.
type (
	// Config describes the simulated machine.
	Config = sim.Config
	// System is an assembled machine instance.
	System = sim.System
	// Ctx is the workload-facing load/store/transaction interface.
	Ctx = sim.Ctx
	// Mode names one of the eight evaluated designs.
	Mode = txn.Mode
	// Run is the metric bundle produced by one simulation.
	Run = stats.Run
	// RunSet indexes runs for paper-style normalization.
	RunSet = stats.RunSet
	// Table renders aligned result rows.
	Table = stats.Table
	// Addr is a simulated physical address.
	Addr = mem.Addr
	// Word is a machine word.
	Word = mem.Word
	// RecoveryReport summarizes a post-crash recovery pass.
	RecoveryReport = recovery.Report
)

// The evaluated designs (paper Section VI).
const (
	NonPers    = txn.NonPers
	SWUndo     = txn.SWUndo
	SWRedo     = txn.SWRedo
	SWUndoClwb = txn.SWUndoClwb
	SWRedoClwb = txn.SWRedoClwb
	HWUnsafe   = txn.HWUnsafe
	HWL        = txn.HWL
	FWB        = txn.FWB
)

// ErrCrashed is returned by System.RunN when a scheduled crash fired.
var ErrCrashed = sim.ErrCrashed

// DefaultConfig returns the paper's Table II machine configuration.
func DefaultConfig(mode Mode, threads int) Config { return sim.DefaultConfig(mode, threads) }

// NewSystem builds a machine.
func NewSystem(cfg Config) (*System, error) { return sim.New(cfg) }

// AllModes lists every design in evaluation order.
func AllModes() []Mode { return txn.AllModes() }

// ParseMode resolves a design by its paper name (e.g. "fwb", "redo-clwb").
func ParseMode(name string) (Mode, error) { return txn.ParseMode(name) }

// NewRunSet creates an empty result index.
func NewRunSet() *RunSet { return stats.NewRunSet() }

// Geomean returns the geometric mean of positive values.
func Geomean(vals []float64) float64 { return stats.Geomean(vals) }
