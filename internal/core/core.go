// Package core implements the paper's primary contribution: hardware
// undo+redo logging for persistent memory (Section III).
//
// Two mechanisms cooperate:
//
//   - HWL (Hardware Logging): every persistent store automatically emits an
//     undo+redo record. The redo value comes from the in-flight store, the
//     undo value from the hitting or write-allocated cache line — the cache
//     hierarchy hands both to OnStore. Records drain through the memory
//     controller's log buffer to the circular NVRAM log with no logging
//     instructions, no memory barriers, and no forced write-backs on the
//     critical path. Commits are "instant": a commit record is issued and
//     the transaction is done (Section III-D).
//
//   - FWB (cache Force Write-Back): a background scanner (the Figure 5 FSM
//     in the cache controllers) forces dirty persistent lines to NVRAM
//     often enough that the circular log can always truncate before it
//     wraps into live records. The scan interval derives from the log size
//     and the NVRAM write bandwidth (Section IV-D): interval =
//     capacity × avg-append-cost / safety-factor.
//
// The engine also owns the transaction-ID registers (256 active physical
// IDs, Section IV-B) and the log head/tail special registers (via nvlog),
// and implements the truncation safety rule of Section II-C: a record may
// be overwritten only after its transaction committed and its working-data
// line is durably in NVRAM (not dirty in any cache, no in-flight write).
package core

import (
	"errors"
	"fmt"

	"pmemlog/internal/cache"
	"pmemlog/internal/mem"
	"pmemlog/internal/memctl"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/nvram"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/scope"
)

// Config describes the engine.
type Config struct {
	Log nvlog.Config
	// FwbScanInterval overrides the derived scan interval when nonzero.
	FwbScanInterval uint64
	// Unsafe models "hardware logging with no persistence guarantee" (the
	// hw-unsafe bound): a full log overwrites its oldest record without the
	// truncation safety rule, and no durable head is kept, so no head
	// metadata is written or synced before a slot is reused.
	Unsafe bool
	// DisableFWB turns the background scanner off (the hwl configuration,
	// which relies on clwb at commit instead).
	DisableFWB bool
	// GrowFactor scales the log region on log_grow (0 disables growing; an
	// uncommitted transaction that fills the log then returns ErrLogWedged).
	GrowFactor int
	// NumLogs splits the log region into this many independent circular
	// logs, records routed by thread ID — the distributed per-thread
	// alternative of Section III-F. 0 or 1 means one centralized log.
	NumLogs int
}

// maxActiveTx is the number of physical transaction-ID registers
// (Section IV-B: an 8-bit ID, 256 active transactions).
const maxActiveTx = 256

// LogBufferBound returns the largest persistence-safe log buffer size in
// entries (Section IV-C): a buffered record takes ~one cycle per occupied
// slot to reach the NVRAM bus, while its data store needs at least the
// full cache-hierarchy traversal (L1 + L2 hit latencies) plus the memory
// controller queue before it can reach the bus — so N must not exceed
// that minimum traversal time. With the Table II configuration this is
// the paper's 15-entry design point.
func LogBufferBound(l1Hit, l2Hit, queueCycles uint64) int {
	return int(l1Hit + l2Hit + queueCycles - 2) // -2: issue + bus grant margin
}

// DeriveScanInterval computes the FWB scan interval (in cycles) from the
// log capacity and the NVRAM's sustained append bandwidth — the paper's
// Section IV-D frequency law, reproduced as Figure 11(b). The log-fill
// time is halved for the two-pass FLAG->FWB state machine.
func DeriveScanInterval(logCfg nvlog.Config, nv nvram.Config) uint64 {
	perEntry := nv.AvgAppendCyclesPerLine() * float64(logCfg.Style.EntrySize()) / float64(mem.LineSize)
	fill := float64(logCfg.Capacity()) * perEntry
	return uint64(fill / 2)
}

// ErrLogWedged is returned when an uncommitted transaction has filled the
// log and growing is disabled or failed.
var ErrLogWedged = errors.New("core: log full of uncommitted records and cannot grow")

// ErrTxLimit is returned when all physical transaction IDs are in use.
var ErrTxLimit = errors.New("core: no free physical transaction ID")

// Tx is a live transaction handle.
type Tx struct {
	handle   uint64 // unique for the run
	physID   uint8  // the 8-bit register value
	threadID uint8
	started  bool // header record emitted (lazily, on first store)
	records  uint64

	// Per-transaction cost ledger (scope accounting): application bytes
	// stored vs log bytes written on this transaction's behalf. Folded
	// into the scope per-txn amplification mean at Commit.
	payloadBytes uint64
	logBytes     uint64
}

// TxID returns the 16-bit transaction ID written into log records.
func (t *Tx) TxID() uint16 { return uint16(t.handle) }

// Handle returns the run-unique transaction handle.
func (t *Tx) Handle() uint64 { return t.handle }

// recMeta is the volatile mirror of one live log record, used only for
// truncation decisions (hardware would derive this from bookkeeping in the
// memory controller; recovery never reads it).
type recMeta struct {
	handle uint64
	line   mem.Addr
	kind   uint8
}

// Stats aggregates engine counters.
type Stats struct {
	Begins          uint64
	Commits         uint64
	Records         uint64
	Truncated       uint64
	EmergencyFlush  uint64 // targeted flushes to unwedge the log head
	Grows           uint64
	ScansRun        uint64
	UnsafeOverwrite uint64
}

// logState is one circular log plus its volatile record mirror. With
// centralized logging there is exactly one; with distributed (per-thread)
// logging, Section III-F's alternative, there is one per hardware thread.
type logState struct {
	idx      int // position in Engine.logs (reported to the truncated hook)
	log      *nvlog.Log
	origBase mem.Addr  // region base at creation (recovery's entry point)
	records  []recMeta // deque mirroring [head, tail); live window is records[recHead:]
	recHead  int       // index of the oldest live record
	dropped  uint64    // records popped since the last log.Truncate call
}

// recLen returns the number of live record mirrors.
func (ls *logState) recLen() int { return len(ls.records) - ls.recHead }

// front returns the oldest live record mirror.
func (ls *logState) front() recMeta { return ls.records[ls.recHead] }

// push appends a record mirror, compacting the dead prefix left behind by
// pop instead of re-slicing the head (records = records[1:] would leak one
// capacity slot per truncation and reallocate forever; compaction keeps
// the backing array stable, so steady-state appends allocate nothing).
func (ls *logState) push(m recMeta) {
	if ls.recHead > 0 {
		switch {
		case ls.recHead == len(ls.records):
			ls.records = ls.records[:0]
			ls.recHead = 0
		case ls.recHead > cap(ls.records)/2,
			// About to grow with a reclaimable dead prefix worth at least a
			// quarter of the array: compact instead. (A smaller prefix is
			// not worth the copy — growing amortizes better.)
			len(ls.records) == cap(ls.records) && ls.recHead >= cap(ls.records)/4:
			n := copy(ls.records, ls.records[ls.recHead:])
			ls.records = ls.records[:n]
			ls.recHead = 0
		}
	}
	ls.records = append(ls.records, m)
}

// pop removes and returns the oldest live record mirror.
func (ls *logState) pop() recMeta {
	m := ls.records[ls.recHead]
	ls.recHead++
	return m
}

// Engine is the HWL+FWB hardware.
type Engine struct {
	cfg  Config
	logs []*logState
	ctl  *memctl.Controller
	hier *cache.Hierarchy

	nextHandle uint64
	freeIDs    []uint8
	txFree     []*Tx // recycled handles (Begin reuses instead of allocating)
	active     map[uint64]*Tx
	committed  map[uint64]bool
	liveRecs   map[uint64]uint64 // handle -> live record count

	scanInterval uint64 // current (possibly adapted) scan interval
	baseInterval uint64 // the Section IV-D law's interval
	nextScan     uint64

	// growRegion allocates a fresh NVRAM region for log_grow.
	growRegion func(sizeBytes uint64) (mem.Addr, bool)
	// onTruncated fires when a committed transaction's last live record is
	// truncated, with the evidence needed to prove data durability after a
	// crash: once the region's durable head passes LastSeq (same region),
	// or any later log_grow's forward pointer became durable, the
	// truncation's enabling data write-backs provably reached NVRAM.
	onTruncated func(handle uint64, ev TruncEvidence)

	// tracer receives log and FWB events when tracing is attached. The
	// nvlog hooks fire from inside PrepareAppend/Truncate, which have no
	// clock, so traceNow carries the cycle of the current engine entry
	// point for the closures to stamp.
	tracer   *obs.Tracer
	traceNow uint64
	// span tags record-level trace events with the request span currently
	// driving the engine (see SetSpan); 0 outside any traced request.
	span uint32

	// scope is the persistence-domain cost ledger (nil = unscoped; every
	// hook is nil-receiver-safe, one branch per event).
	scope *scope.Counters

	stats Stats
}

// SetSpan sets the request span tag stamped on record-level trace events
// (log append, log-full stall) until the next SetSpan. Log-global events
// (wrap, truncation) stay untagged: they belong to the log's lifetime,
// not to whichever request happened to trigger them.
func (e *Engine) SetSpan(span uint32) { e.span = span }

// SetScope attaches (or with nil detaches) the persistence-domain cost
// ledger. The engine attributes every log byte it pushes through the
// memory controller — records, head/tail metadata persists, grow
// migrations — to a scope byte class, and folds each committed
// transaction's payload/log ratio into the per-txn amplification mean.
func (e *Engine) SetScope(c *scope.Counters) { e.scope = c }

// noteRecordBytes attributes one appended record's bytes (plus any log
// metadata written alongside it) to scope byte classes. Update records
// pay for their undo and redo words; header and commit records are pure
// bookkeeping, so their reserved value words count as header bytes.
func (e *Engine) noteRecordBytes(kind uint8, slot, total uint64) {
	meta := uint64(0)
	if total > slot {
		meta = total - slot
	}
	if kind == nvlog.KindUpdate {
		e.scope.NoteLogBytes(nvlog.RecUndoBytes, nvlog.RecRedoBytes,
			slot-nvlog.RecUndoBytes-nvlog.RecRedoBytes-nvlog.RecChecksumBytes+meta,
			nvlog.RecChecksumBytes)
		return
	}
	e.scope.NoteLogBytes(0, 0, slot-nvlog.RecChecksumBytes+meta, nvlog.RecChecksumBytes)
}

// SetTracer attaches (or with nil detaches) the obs tracer, installing
// clock-stamping closures on every sub-log. Record-level events land in
// the emitting thread's ring; log-global events (wrap-around,
// truncation) fold into the tracer's last ring.
func (e *Engine) SetTracer(t *obs.Tracer) {
	e.tracer = t
	for _, ls := range e.logs {
		if t == nil {
			ls.log.SetTrace(nil)
			continue
		}
		ls.log.SetTrace(func(k nvlog.TraceKind, arg uint64, ent *nvlog.Entry) {
			ring := -1 // machine ring
			var txid uint16
			if ent != nil {
				ring = int(ent.ThreadID)
				txid = ent.TxID
			}
			switch k {
			case nvlog.TraceAppend:
				e.tracer.EmitSpan(ring, e.traceNow, obs.KindLogAppend, txid, arg, e.span)
			case nvlog.TraceWrap:
				e.tracer.Emit(-1, e.traceNow, obs.KindLogWrap, 0, arg)
			case nvlog.TraceFull:
				e.tracer.EmitSpan(ring, e.traceNow, obs.KindLogStall, txid, arg, e.span)
			case nvlog.TraceTruncate:
				e.tracer.Emit(-1, e.traceNow, obs.KindLogTruncate, 0, arg)
			}
		})
	}
}

// Format returns log_create's metadata writes for an engine whose log
// region is split into numLogs sub-logs: the image a fresh machine boots
// from. log_create blocks until they are durable, before any transaction
// exists, so the caller applies them to the image directly.
func Format(log nvlog.Config, numLogs int) ([]nvlog.Write, error) {
	subCfgs, err := splitLogRegion(log, numLogs)
	if err != nil {
		return nil, err
	}
	var init []nvlog.Write
	for _, sub := range subCfgs {
		_, ws, err := nvlog.New(sub)
		if err != nil {
			return nil, err
		}
		init = append(init, ws...)
	}
	return init, nil
}

// New opens the engine over the log region(s) in the controller's NVRAM
// image, at the pointers their durable metadata holds — log_create's
// (Format) on a fresh machine, recovery's after a crash. It writes nothing.
func New(cfg Config, ctl *memctl.Controller, hier *cache.Hierarchy) (*Engine, error) {
	subCfgs, err := splitLogRegion(cfg.Log, cfg.NumLogs)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg, ctl: ctl, hier: hier,
		active:    make(map[uint64]*Tx),
		committed: make(map[uint64]bool),
		liveRecs:  make(map[uint64]uint64),
	}
	for _, sub := range subCfgs {
		log, err := nvlog.Open(ctl.NVRAM().Image(), sub)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		e.logs = append(e.logs, &logState{idx: len(e.logs), log: log, origBase: sub.Base})
		// Keep transaction handles monotone across reboots: every pre-crash
		// transaction consumed at least one log sequence number, so the sum
		// of the opened tails bounds all previously issued handles.
		e.nextHandle += log.Tail()
	}
	for i := maxActiveTx - 1; i >= 0; i-- {
		e.freeIDs = append(e.freeIDs, uint8(i))
	}
	if cfg.FwbScanInterval > 0 {
		e.scanInterval = cfg.FwbScanInterval
	} else {
		// Distributed logs are smaller, so the scan must run more often
		// (derived from one sub-log's capacity).
		e.scanInterval = DeriveScanInterval(subCfgs[0], ctl.NVRAM().Config())
	}
	e.baseInterval = e.scanInterval
	e.nextScan = e.scanInterval
	return e, nil
}

// SetGrowRegion registers the allocator log_grow uses for new regions.
func (e *Engine) SetGrowRegion(fn func(sizeBytes uint64) (mem.Addr, bool)) { e.growRegion = fn }

// TruncEvidence is the durability evidence attached to a truncation.
type TruncEvidence struct {
	LogIdx  int
	Base    mem.Addr // region whose sequence numbering LastSeq belongs to
	LastSeq uint64
}

// SetTruncatedHook registers a callback fired when a committed
// transaction's records have been fully truncated (safe modes only).
func (e *Engine) SetTruncatedHook(fn func(handle uint64, ev TruncEvidence)) {
	e.onTruncated = fn
}

// splitLogRegion divides a log region into n equal sub-regions, each a
// self-contained circular log with its own metadata line (n <= 1: the
// region itself).
func splitLogRegion(cfg nvlog.Config, n int) ([]nvlog.Config, error) {
	if n <= 1 {
		return []nvlog.Config{cfg}, nil
	}
	per := cfg.SizeBytes / uint64(n) &^ (mem.LineSize - 1)
	if per < nvlog.MetaSize+cfg.SlotSize() {
		return nil, fmt.Errorf("core: log region %d B too small for %d sub-logs", cfg.SizeBytes, n)
	}
	out := make([]nvlog.Config, n)
	for i := range out {
		out[i] = cfg
		out[i].Base = cfg.Base + mem.Addr(uint64(i)*per)
		out[i].SizeBytes = per
		out[i].MetaEvery = 0
	}
	return out, nil
}

// Log exposes the (first) circular log (tests, recovery wiring).
func (e *Engine) Log() *nvlog.Log { return e.logs[0].log }

// LogBases returns every sub-log's ORIGINAL base address — the durable
// entry points recovery starts from (log_grow leaves a forward pointer in
// the original region's metadata).
func (e *Engine) LogBases() []mem.Addr {
	out := make([]mem.Addr, len(e.logs))
	for i, ls := range e.logs {
		out[i] = ls.origBase
	}
	return out
}

// logOf routes a thread to its log (identity under centralized logging).
func (e *Engine) logOf(threadID uint8) *logState {
	return e.logs[int(threadID)%len(e.logs)]
}

// ScanInterval returns the FWB scan interval in cycles.
func (e *Engine) ScanInterval() uint64 { return e.scanInterval }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// LiveRecords returns the number of live records across all logs.
func (e *Engine) LiveRecords() uint64 {
	var n uint64
	for _, ls := range e.logs {
		n += ls.log.Len()
	}
	return n
}

// Begin starts a transaction, allocating a physical transaction ID
// register. Returns the handle used for all later calls.
func (e *Engine) Begin(now uint64, threadID uint8) (*Tx, error) {
	if len(e.freeIDs) == 0 {
		return nil, ErrTxLimit
	}
	id := e.freeIDs[len(e.freeIDs)-1]
	e.freeIDs = e.freeIDs[:len(e.freeIDs)-1]
	e.nextHandle++
	var tx *Tx
	if n := len(e.txFree); n > 0 {
		tx = e.txFree[n-1]
		e.txFree = e.txFree[:n-1]
		*tx = Tx{}
	} else {
		tx = &Tx{}
	}
	tx.handle, tx.physID, tx.threadID = e.nextHandle, id, threadID
	e.active[tx.handle] = tx
	e.stats.Begins++
	return tx, nil
}

// append writes one record through the log buffer, handling the full-log
// slow paths. It returns the cycle the record was accepted.
func (e *Engine) append(now uint64, ls *logState, entry nvlog.Entry, meta recMeta) (uint64, error) {
	e.traceNow = now
	for attempt := 0; ; attempt++ {
		writes, err := ls.log.PrepareAppend(entry)
		if err == nil {
			done := now
			base := ls.log.Config().Base
			var total uint64
			for i, w := range writes {
				// A head-metadata write emitted BEFORE the record (the
				// sync-before-reuse rule) must COMPLETE before the record
				// is issued; otherwise a crash could leave the record
				// durable in a reused slot while the durable head still
				// trusts that slot's old sequence number. An unsafe log
				// keeps no durable head, so it writes none.
				headSync := w.Addr == base && i < len(writes)-1
				if headSync && e.cfg.Unsafe {
					continue
				}
				total += uint64(len(w.Bytes))
				if d := e.ctl.AppendLog(now, w.Addr, w.Bytes); d > done {
					done = d
				}
				if headSync {
					if d := e.ctl.DrainBuffers(now); d > now {
						now = d
						done = d
					}
				}
			}
			ls.push(meta)
			e.liveRecs[meta.handle]++
			e.stats.Records++
			e.noteRecordBytes(entry.Kind, ls.log.Config().Style.EntrySize(), total)
			return done, nil
		}
		if attempt > 2 {
			return now, ErrLogWedged
		}
		if d, err := e.unwedge(now, ls); err != nil {
			return now, err
		} else if d > now {
			now = d
			e.traceNow = now
		}
	}
}

// unwedge makes room in a full log: truncate what is safe; if the head
// record's line is still dirty, force a targeted write-back (the hardware
// emergency path implied by "forced write-backs must be faster than the
// rate at which log entries are overwritten"); if the head belongs to an
// uncommitted transaction, grow the log (Section IV-A's log_grow).
func (e *Engine) unwedge(now uint64, ls *logState) (uint64, error) {
	if e.cfg.Unsafe {
		// No persistence guarantee: overwrite the oldest record.
		if ls.recLen() > 0 {
			e.dropHead(now, ls)
			if _, err := ls.log.Truncate(1); err != nil {
				return now, err
			}
			ls.dropped = 0
			e.stats.UnsafeOverwrite++
			// The truncate metadata write is skipped: unsafe designs do not
			// maintain a durable head.
		}
		return now, nil
	}

	if n := e.truncateLog(now, ls); n > 0 {
		return now, nil
	}
	if ls.recLen() == 0 {
		return now, nil
	}
	head := ls.front()
	if e.committed[head.handle] {
		// Blocked on an unpersisted line: force it out now. If the line is
		// no longer dirty, a posted eviction is already carrying it to
		// NVRAM — wait for that write instead. Reaching this path means the
		// scan frequency is losing to the append rate; the paper requires
		// forced write-backs to outpace log overwrite, so the governor
		// halves the interval (it relaxes back toward the law when the log
		// runs at low occupancy).
		if !e.cfg.DisableFWB && e.scanInterval > e.baseInterval/8 {
			e.scanInterval /= 2
			if e.nextScan > now+e.scanInterval {
				e.nextScan = now + e.scanInterval
			}
		} else if !e.cfg.DisableFWB {
			// Scanning 8x the law still loses to the append rate: the log
			// is undersized for this workload. The paper's countermeasure
			// is to grow the log, restoring a low scan frequency
			// (Section IV-D: "we also grow the size of the log to reduce
			// the scanning frequency accordingly").
			if d, err := e.grow(now, ls); err == nil {
				return d, nil
			}
		}
		if head.kind == nvlog.KindUpdate {
			done, _ := e.hier.Flush(now, 0, head.line)
			done = e.ctl.LineWriteDone(head.line, done)
			e.stats.EmergencyFlush++
			// The write-back must complete before the record is overwritten.
			if n := e.truncateLog(done, ls); n > 0 {
				return done, nil
			}
			return done, fmt.Errorf("core: emergency flush of %v did not unwedge the log", head.line)
		}
		return now, fmt.Errorf("core: non-update head record of committed tx not truncatable")
	}

	// Head record belongs to an uncommitted transaction: log_grow.
	return e.grow(now, ls)
}

func (e *Engine) grow(now uint64, ls *logState) (uint64, error) {
	if e.cfg.GrowFactor < 2 || e.growRegion == nil {
		return now, ErrLogWedged
	}
	oldCfg := ls.log.Config()
	newSize := oldCfg.SizeBytes * uint64(e.cfg.GrowFactor)
	base, ok := e.growRegion(newSize)
	if !ok {
		return now, ErrLogWedged
	}
	newCfg := oldCfg
	newCfg.Base = base
	newCfg.SizeBytes = newSize
	newCfg.MetaEvery = 0
	// Migration reads live records from the NVRAM image, so everything
	// buffered must drain first.
	if d := e.ctl.DrainBuffers(now); d > now {
		now = d
	}
	writes, err := ls.log.Grow(e.ctl.NVRAM().Image(), newCfg)
	if err != nil {
		return now, err
	}
	done := now
	for _, w := range writes {
		// Grow migration re-writes live records plus fresh metadata:
		// none of it is new undo/redo value traffic, so it is all
		// bookkeeping (header class) in the scope ledger.
		e.scope.NoteLogBytes(0, 0, uint64(len(w.Bytes)), 0)
		if d := e.ctl.AppendLog(now, w.Addr, w.Bytes); d > done {
			done = d
		}
	}
	// The new region (records + metadata) must be fully durable, and the
	// original region's forwarding pointer durable after that, BEFORE any
	// post-grow append: a crash at any point then finds either the intact
	// old region or a complete forward to the new one.
	if d := e.ctl.DrainBuffers(now); d > now {
		now = d
	}
	fw := nvlog.ForwardWrite(e.ctl.NVRAM().Image(), ls.origBase, newCfg.Base)
	e.scope.NoteLogBytes(0, 0, uint64(len(fw.Bytes)), 0)
	e.ctl.AppendLog(now, fw.Addr, fw.Bytes)
	if d := e.ctl.DrainBuffers(now); d > now {
		now = d
	}
	if done < now {
		done = now
	}
	if len(e.logs) == 1 {
		e.cfg.Log = newCfg
	}
	e.stats.Grows++
	// A larger log allows a lower scan frequency (Section III-F).
	if e.cfg.FwbScanInterval == 0 {
		e.scanInterval = DeriveScanInterval(newCfg, e.ctl.NVRAM().Config())
		e.baseInterval = e.scanInterval
	}
	return done, nil
}

// OnStore is invoked by the store path for every persistent store: addr is
// the word's physical address, old the undo value extracted from the cache
// line, new the redo value from the store itself. It returns the cycle the
// HWL engine releases the store (only log-buffer backpressure can stall).
func (e *Engine) OnStore(now uint64, tx *Tx, addr mem.Addr, old, new mem.Word) (uint64, error) {
	done := now
	ls := e.logOf(tx.threadID)
	if !tx.started {
		// First update of the transaction: emit the log record header
		// (Section III-E step 1a).
		tx.started = true
		d, err := e.append(now, ls, nvlog.Entry{
			Kind: nvlog.KindHeader, TxID: tx.TxID(), ThreadID: tx.threadID,
		}, recMeta{handle: tx.handle, kind: nvlog.KindHeader})
		if err != nil {
			return now, err
		}
		done = d
		tx.logBytes += ls.log.Config().Style.EntrySize()
	}
	d, err := e.append(done, ls, nvlog.Entry{
		Kind: nvlog.KindUpdate, TxID: tx.TxID(), ThreadID: tx.threadID,
		Addr: addr.WordAligned(), Undo: old, Redo: new,
	}, recMeta{handle: tx.handle, line: addr.Line(), kind: nvlog.KindUpdate})
	if err != nil {
		return now, err
	}
	if d > done {
		done = d
	}
	tx.records++
	tx.payloadBytes += mem.WordSize
	tx.logBytes += ls.log.Config().Style.EntrySize()
	e.scope.NoteStore(tx.handle, uint64(addr.Line()), mem.WordSize)
	return done, nil
}

// Commit ends the transaction: a commit record is issued through the log
// buffer and the physical ID register is released immediately — the
// paper's instant commit (Section III-D). No cache write-back, no fence.
func (e *Engine) Commit(now uint64, tx *Tx) (uint64, error) {
	done := now
	if tx.started {
		d, err := e.append(now, e.logOf(tx.threadID), nvlog.Entry{
			Kind: nvlog.KindCommit, TxID: tx.TxID(), ThreadID: tx.threadID,
		}, recMeta{handle: tx.handle, kind: nvlog.KindCommit})
		if err != nil {
			return now, err
		}
		done = d
		tx.logBytes += e.logOf(tx.threadID).log.Config().Style.EntrySize()
	}
	e.scope.NoteTxnCommit(tx.payloadBytes, tx.logBytes)
	e.committed[tx.handle] = true
	delete(e.active, tx.handle)
	e.freeIDs = append(e.freeIDs, tx.physID)
	e.stats.Commits++
	// Opportunistic truncation keeps the transaction's log from filling.
	e.truncateLog(done, e.logOf(tx.threadID))
	// The handle is dead: recycle it for the next Begin. Callers must not
	// touch a Tx after Commit (the sim layer drops its reference).
	e.txFree = append(e.txFree, tx)
	return done, nil
}

func (e *Engine) dropHead(now uint64, ls *logState) {
	seq := ls.log.Head() + ls.dropped // sequence of the record being dropped
	ls.dropped++
	meta := ls.pop()
	e.liveRecs[meta.handle]--
	if e.liveRecs[meta.handle] == 0 {
		wasCommitted := e.committed[meta.handle]
		delete(e.liveRecs, meta.handle)
		delete(e.committed, meta.handle)
		if wasCommitted && !e.cfg.Unsafe && e.onTruncated != nil {
			e.onTruncated(meta.handle, TruncEvidence{LogIdx: ls.idx, Base: ls.log.Config().Base, LastSeq: seq})
		}
	}
}

// TryTruncate advances every log's head past all records safe to
// overwrite: the record's transaction committed, and (for update records)
// its working-data line is durable — not dirty in any cache and with no
// in-flight NVRAM write (Section II-C's safety condition). Returns the
// total number of records truncated.
func (e *Engine) TryTruncate(now uint64) uint64 {
	var n uint64
	for _, ls := range e.logs {
		n += e.truncateLog(now, ls)
	}
	return n
}

// truncateLog applies the truncation safety rule to one log.
func (e *Engine) truncateLog(now uint64, ls *logState) uint64 {
	e.traceNow = now
	var n uint64
	for ls.recLen() > 0 {
		meta := ls.front()
		if !e.committed[meta.handle] {
			break
		}
		if meta.kind == nvlog.KindUpdate {
			if e.hier.DirtyAnywhere(meta.line) || e.ctl.LineWriteDone(meta.line, now) > now {
				break
			}
		}
		e.dropHead(now, ls)
		n++
	}
	if n > 0 {
		writes, err := ls.log.Truncate(n)
		if err != nil {
			panic(fmt.Sprintf("core: truncate bookkeeping diverged: %v", err))
		}
		ls.dropped = 0
		for _, w := range writes {
			// Truncation head persists are log bookkeeping: header class.
			e.scope.NoteLogBytes(0, 0, uint64(len(w.Bytes)), 0)
			e.ctl.AppendLog(now, w.Addr, w.Bytes)
		}
		e.stats.Truncated += n
	}
	return n
}

// FwbTick runs the FWB scanner if its interval has elapsed. The simulator
// calls this with the global time; returns true when a scan ran.
func (e *Engine) FwbTick(now uint64) bool {
	if e.cfg.DisableFWB || e.scanInterval == 0 || now < e.nextScan {
		return false
	}
	// Governor relax: with every log comfortably below half full, drift
	// back toward the Section IV-D law's interval.
	if e.scanInterval < e.baseInterval {
		relaxed := true
		for _, ls := range e.logs {
			if ls.log.Occupancy() > 0.5 {
				relaxed = false
				break
			}
		}
		if relaxed {
			e.scanInterval += e.scanInterval / 4
			if e.scanInterval > e.baseInterval {
				e.scanInterval = e.baseInterval
			}
		}
	}
	e.hier.FwbScan(now)
	e.stats.ScansRun++
	for e.nextScan <= now {
		e.nextScan += e.scanInterval
	}
	// Freshly persisted lines unlock truncation.
	e.TryTruncate(now)
	return true
}

// ActiveTransactions returns the number of live (uncommitted) transactions.
func (e *Engine) ActiveTransactions() int { return len(e.active) }
