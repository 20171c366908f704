// Package txn defines the persistent-memory transaction designs the paper
// evaluates (Section VI) and the software-logging cost model. Each design
// is a declarative Spec; the simulator (internal/sim) interprets the spec
// on every transactional store and commit:
//
//	non-pers    ideal non-persistent memory (upper bound)
//	sw-ulog     software undo logging, NO clwb  ─┐ the better of the two is
//	sw-rlog     software redo logging, NO clwb  ─┘ reported as "unsafe-base"
//	undo-clwb   software undo logging + clwb before commit
//	redo-clwb   software redo logging + per-store fence + clwb at commit
//	hw-unsafe   hardware undo+redo logging, no persistence guarantee: the
//	            optimistic bound (the paper's hw-ulog/hw-rlog bars)
//	hwl         hardware undo+redo logging + clwb at commit (conservative)
//	fwb         hwl + decoupled force write-back (the paper's full design)
package txn

import (
	"fmt"

	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
)

// Mode names one evaluated design.
type Mode int

const (
	NonPers Mode = iota
	SWUndo
	SWRedo
	SWUndoClwb
	SWRedoClwb
	HWUnsafe
	HWL
	FWB
	numModes
)

// AllModes lists every mode in evaluation order.
func AllModes() []Mode {
	out := make([]Mode, numModes)
	for i := range out {
		out[i] = Mode(i)
	}
	return out
}

// Spec describes how a mode behaves on the simulated machine.
type Spec struct {
	Name string
	// SWLog enables software logging with the given style; log records are
	// built by extra instructions and written through the WCB.
	SWLog   bool
	SWStyle nvlog.Style
	// HWLog enables the hardware logging engine. Its records are always
	// undo+redo; without Persistent the engine runs unsafe (hw-unsafe:
	// "no persistence guarantee").
	HWLog bool
	// FencePerStore inserts a memory barrier between each log update and
	// its data store (required by redo logging, Figure 1(b)).
	FencePerStore bool
	// ClwbAtCommit flushes the transaction's write set before commit and
	// fences (undo-clwb, redo-clwb, hwl).
	ClwbAtCommit bool
	// UseFWB enables the background force-write-back scanner.
	UseFWB bool
	// Persistent marks designs that actually guarantee crash consistency.
	Persistent bool
}

// specs is indexed by Mode.
var specs = [numModes]Spec{
	NonPers: {Name: "non-pers"},
	SWUndo:  {Name: "sw-ulog", SWLog: true, SWStyle: nvlog.UndoOnly},
	SWRedo:  {Name: "sw-rlog", SWLog: true, SWStyle: nvlog.RedoOnly},
	SWUndoClwb: {Name: "undo-clwb", SWLog: true, SWStyle: nvlog.UndoOnly,
		ClwbAtCommit: true, Persistent: true},
	SWRedoClwb: {Name: "redo-clwb", SWLog: true, SWStyle: nvlog.RedoOnly,
		FencePerStore: true, ClwbAtCommit: true, Persistent: true},
	HWUnsafe: {Name: "hw-unsafe", HWLog: true},
	HWL:      {Name: "hwl", HWLog: true, ClwbAtCommit: true, Persistent: true},
	FWB:      {Name: "fwb", HWLog: true, UseFWB: true, Persistent: true},
}

// Spec returns the mode's behaviour description.
func (m Mode) Spec() Spec { return specs[m] }

// String returns the paper's name for the mode.
func (m Mode) String() string { return specs[m].Name }

// MarshalText encodes the mode as its paper name, making Mode usable in
// JSON metadata (server boot manifests, machine-readable benchmark dumps).
func (m Mode) MarshalText() ([]byte, error) {
	if m < 0 || m >= numModes {
		return nil, fmt.Errorf("txn: invalid mode %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText resolves a mode from its paper name.
func (m *Mode) UnmarshalText(b []byte) error {
	v, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ParseMode resolves a mode by its paper name.
func ParseMode(name string) (Mode, error) {
	for i := Mode(0); i < numModes; i++ {
		if specs[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("txn: unknown mode %q", name)
}

// Software-logging instruction cost model (Section II-C: "software logging
// generates extra instructions ... using only undo logging can lead to more
// than doubled instructions"). Counts are per logged word-granular store,
// on top of the real loads/stores the simulator issues for the log itself.
const (
	// SWLogSetupInstr is the per-transaction logging overhead (function
	// call, log cursor setup) charged at the first logged store.
	SWLogSetupInstr = 12
	// SWUndoInstrPerStore: logging-function call overhead, log-cursor
	// arithmetic, bounds/wrap check, torn-bit and header field packing for
	// an undo record (a Mnemosyne-style append is a few dozen
	// instructions). The old-value *load* and the log *stores* are issued
	// as real memory operations on top of these. Calibrated so software
	// logging lands in the paper's >2x instruction band (Fig 7).
	SWUndoInstrPerStore = 24
	// SWRedoInstrPerStore: as above minus old-value handling.
	SWRedoInstrPerStore = 20
	// SWLogStoresPerRecord is how many uncacheable stores build one
	// compact record (32 B / 8 B words = 4 stores).
	SWLogStoresPerRecord = int(nvlog.CompactEntrySize / mem.WordSize)
	// SWCommitInstr finalizes a software-logged transaction.
	SWCommitInstr = 6
	// TxBeginInstr / TxCommitInstr are the transaction bookkeeping costs
	// (tx_begin/tx_commit themselves: ID allocation, register setup);
	// every persistent design pays them, non-pers does not — they are the
	// bulk of the paper's ~30% instruction overhead for fwb.
	TxBeginInstr  = 4
	TxCommitInstr = 4
	// ClwbInstr / FenceInstr are the instruction slots of clwb and
	// mfence/sfence.
	ClwbInstr  = 1
	FenceInstr = 1
)

// WriteSet tracks the cache lines a transaction dirtied, in first-write
// order — what a software transaction runtime flushes with clwb at commit,
// and what the simulator uses to bound flush work.
type WriteSet struct {
	lines []mem.Addr
	seen  map[mem.Addr]struct{}
}

// NewWriteSet returns an empty write set.
func NewWriteSet() *WriteSet {
	return &WriteSet{seen: make(map[mem.Addr]struct{})}
}

// Add records the line containing addr.
func (w *WriteSet) Add(addr mem.Addr) {
	line := addr.Line()
	if _, ok := w.seen[line]; ok {
		return
	}
	w.seen[line] = struct{}{}
	w.lines = append(w.lines, line)
}

// Lines returns the dirtied lines in first-write order.
func (w *WriteSet) Lines() []mem.Addr { return w.lines }

// Size returns the number of distinct lines.
func (w *WriteSet) Size() int { return len(w.lines) }

// Reset clears the set for reuse by the next transaction.
func (w *WriteSet) Reset() {
	w.lines = w.lines[:0]
	for k := range w.seen {
		delete(w.seen, k)
	}
}
