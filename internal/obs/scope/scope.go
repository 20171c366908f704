// Package scope is the persistence-domain cost-accounting layer: it
// attributes every NVRAM byte the machine writes to a cause, so the
// paper's economic argument — hardware undo+redo logging wins because
// it minimizes extra NVRAM traffic — is measurable live instead of
// asserted. Four ledgers:
//
//   - Write amplification: log bytes (split by undo/redo/header/
//     checksum class) plus forced and natural write-back bytes over
//     payload bytes, per shard and per transaction.
//   - Line recurrence: a fixed-size hash sketch over (txn, line) that
//     counts log appends hitting a line the same transaction already
//     logged — the coalescible fraction a dedup/compaction pass could
//     erase.
//   - FWB efficiency: forced vs natural write-backs, and forced
//     flushes wasted because the line was re-dirtied before the next
//     scan.
//   - Per-txn amplification: each commit folds its own log-bytes /
//     payload-bytes ratio into a running mean.
//
// Cost contract: Counters is written by exactly one goroutine (the
// machine's owner — a server shard loop), every Note* method is
// allocation-free and nil-receiver-safe (an unscoped machine pays one
// branch per event), and the sketches are fixed arrays cleared by an
// O(1) epoch bump. Guarded by TestScopeZeroAllocSteadyState.
package scope

// Sketch geometry: a power-of-two slot array with a short linear
// probe, modeled on hash-indexed fixed-chunk undo filters (coarse log
// membership without allocation). 1024 slots comfortably covers a
// transaction's working set of lines; a full probe neighborhood drops
// the insert, so recurrence is only ever undercounted, never invented.
const (
	sketchSlots  = 1 << 10
	sketchMask   = sketchSlots - 1
	sketchProbes = 4
)

// sketchSlot is one tagged entry; epoch-stamped so Clear never touches
// the array.
type sketchSlot struct {
	tag   uint64
	epoch uint64
}

// LineSketch is a fixed-size approximate set of 64-bit tags. The zero
// value is an empty sketch. Not safe for concurrent use — it shares
// the Counters single-writer contract.
type LineSketch struct {
	epoch uint64
	slots [sketchSlots]sketchSlot
}

// Clear empties the sketch in O(1) by advancing the epoch; stale slots
// are reclaimed lazily by later inserts.
func (s *LineSketch) Clear() { s.epoch++ }

// Touch inserts tag and reports whether it was already present this
// epoch. A zero tag is remapped (0 marks a removed slot). When the
// whole probe neighborhood is live with other tags the insert is
// dropped and Touch reports false — a conservative miss.
func (s *LineSketch) Touch(tag uint64) bool {
	if tag == 0 {
		tag = 1
	}
	for p := uint64(0); p < sketchProbes; p++ {
		sl := &s.slots[(tag+p)&sketchMask]
		if sl.epoch == s.epoch && sl.tag == tag {
			return true
		}
		if sl.epoch != s.epoch || sl.tag == 0 {
			sl.tag, sl.epoch = tag, s.epoch
			return false
		}
	}
	return false
}

// Remove deletes tag if present this epoch, reporting whether it was.
func (s *LineSketch) Remove(tag uint64) bool {
	if tag == 0 {
		tag = 1
	}
	for p := uint64(0); p < sketchProbes; p++ {
		sl := &s.slots[(tag+p)&sketchMask]
		if sl.epoch == s.epoch && sl.tag == tag {
			sl.tag = 0
			return true
		}
	}
	return false
}

// mix is a splitmix64-style finalizer over a key pair. Tagging lines
// with the owning transaction handle means the per-txn sketch never
// needs clearing between transactions to stay correct — two
// transactions touching the same line produce different tags.
func mix(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// forcedSalt keys the forced-write-back sketch so its line tags cannot
// collide with the per-txn (handle, line) tag space.
const forcedSalt = 0x5CF0FCE5CF0FCE5

// Ledger is the cumulative cost counters the Note* methods accumulate:
// plain uint64 fields, declared here once and carried unchanged through
// Counters (the writer side) and Snapshot (the published side).
type Ledger struct {
	// Log traffic by record byte class (what each NVRAM log byte paid
	// for). Header also absorbs log metadata writes (head/tail persists,
	// truncation pointers): bookkeeping, not values.
	LogUndoBytes     uint64
	LogRedoBytes     uint64
	LogHeaderBytes   uint64
	LogChecksumBytes uint64

	// PayloadBytes is the application bytes actually stored (the
	// amplification denominator). UpdateAppends counts update records;
	// CoalescibleAppends counts those hitting a line their transaction
	// had already logged — the fraction in-txn coalescing would erase.
	PayloadBytes       uint64
	UpdateAppends      uint64
	CoalescibleAppends uint64

	// WastedForcedWB counts FWB-forced write-backs whose line was
	// re-dirtied before the next scan: the flush bought no truncation
	// headroom that a later write-back would not also buy.
	WastedForcedWB uint64

	// Per-transaction amplification: committed transactions with at
	// least one store, and the sum of their individual
	// log-bytes*1000/payload-bytes ratios (milli units keep the mean
	// integer-only on the hot path).
	TxnsMeasured   uint64
	TxnAmpMilliSum uint64
}

// Snapshot is the machine counter vocabulary, declared exactly once:
// the ledger plus the counters and log pointers the machine's other
// components keep. sim.System.Snapshot is the one function that
// gathers it; the server's shard loop publishes it once per batch, and
// every reader of a machine's counters (sim.System.Stats, the pulse
// sampler, the stats document, /metrics, /healthz, flight dumps) sees
// that one value. All fields are cumulative except the log pointers
// and LiveRecords, which are gauges.
type Snapshot struct {
	Ledger

	// Circular log window (record sequence numbers) and capacity: the
	// primary region under distributed logging.
	LogHead uint64
	LogTail uint64
	LogCap  uint64

	Cycles       uint64 // the furthest core's clock
	Instructions uint64 // retired instructions, all cores
	StallCycles  uint64 // core cycles stalled on memory
	Txns         uint64 // committed machine transactions

	L1Hits   uint64 // summed over the cores' L1s
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64

	NVRAMReadBytes  uint64 // bytes read from simulated NVRAM
	NVRAMWriteBytes uint64 // bytes written to simulated NVRAM
	LogWriteBytes   uint64 // the NVRAM write bytes carrying log records
	LogBufStalls    uint64 // log appends that waited for a full log buffer
	DataWrites      uint64 // data lines written back to NVRAM, forced or natural

	LogAppends   uint64 // undo+redo records appended
	LogTruncated uint64 // records reclaimed by head advance
	LogGrows     uint64 // log_grow migrations
	FwbScans     uint64 // forced write-back scans completed
	FwbFlagged   uint64 // FLAG→FWB transitions in the scan FSM
	FwbForced    uint64 // data write-backs the FWB scanner forced

	LiveRecords uint64 // gauge: records currently live in the log
}

// NaturalWB returns the data write-backs the FWB scanner did not force
// (evictions, clwb flushes, emergency flushes).
func (s *Snapshot) NaturalWB() uint64 {
	if s.DataWrites < s.FwbForced {
		return 0
	}
	return s.DataWrites - s.FwbForced
}

// Counters is one machine's persistence-domain ledger plus the sketches
// that feed it, owned by the machine's driving goroutine (the shard
// loop). Concurrent readers never touch it: they see the Snapshot the
// shard publishes after each batch.
type Counters struct {
	Ledger

	txnLines LineSketch // (handle, line) tags of the open transactions
	forced   LineSketch // lines force-flushed since the last scan
}

// NoteLogBytes accounts one log append's (or log metadata write's)
// bytes by class. Hot path: called per record by the logging engine.
func (c *Counters) NoteLogBytes(undo, redo, header, checksum uint64) {
	if c == nil {
		return
	}
	c.LogUndoBytes += undo
	c.LogRedoBytes += redo
	c.LogHeaderBytes += header
	c.LogChecksumBytes += checksum
}

// NoteStore accounts one logged persistent store: payload bytes, the
// update-append count, and line recurrence within the owning
// transaction. Hot path: once per store.
func (c *Counters) NoteStore(handle, line, payloadBytes uint64) {
	if c == nil {
		return
	}
	c.PayloadBytes += payloadBytes
	c.UpdateAppends++
	if c.txnLines.Touch(mix(handle, line)) {
		c.CoalescibleAppends++
	}
}

// NoteTxnCommit folds one committed transaction's ledger into the
// per-txn amplification mean and retires its line set. Transactions
// that stored nothing are not measured (no denominator).
func (c *Counters) NoteTxnCommit(payloadBytes, logBytes uint64) {
	if c == nil || payloadBytes == 0 {
		return
	}
	c.TxnsMeasured++
	c.TxnAmpMilliSum += logBytes * 1000 / payloadBytes
	c.txnLines.Clear()
}

// NoteForcedWB arms the wasted-flush detector for a line the FWB
// scanner just forced out. The count of forced write-backs is the
// caches' own (cache.Stats.FwbForced).
func (c *Counters) NoteForcedWB(line uint64) {
	if c == nil {
		return
	}
	c.forced.Touch(mix(forcedSalt, line))
}

// NoteDirtied observes a line becoming dirty in a cache. A line the
// scanner force-flushed and that re-dirties before the next scan made
// that flush wasted traffic. Hot path: once per store.
func (c *Counters) NoteDirtied(line uint64) {
	if c == nil {
		return
	}
	if c.forced.Remove(mix(forcedSalt, line)) {
		c.WastedForcedWB++
	}
}

// NoteScan marks an FWB scan pass starting: forced flushes from the
// previous pass stop being candidates for the wasted-flush count.
func (c *Counters) NoteScan() {
	if c == nil {
		return
	}
	c.forced.Clear()
}
