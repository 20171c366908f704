package sim

import (
	"fmt"

	"pmemlog/internal/core"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/obs"
	"pmemlog/internal/txn"
)

// Ctx is the interface workloads program against — the simulated machine's
// load/store/transaction surface. All addresses are simulated physical
// addresses from the System's heap; word accesses must be word aligned.
// Methods panic with simFault on machine errors (log wedged, bad address);
// the scheduler converts those to Run errors.
type Ctx interface {
	// TxBegin opens a persistent-memory transaction (tx_begin).
	TxBegin()
	// TxCommit commits it (tx_commit).
	TxCommit()
	// Load reads the word at addr through the cache hierarchy.
	Load(addr mem.Addr) mem.Word
	// Store writes the word at addr. Inside a transaction the write is
	// persistent (logged per the active design); outside it is an ordinary
	// non-persistent store.
	Store(addr mem.Addr, w mem.Word)
	// LoadBytes / StoreBytes move byte strings word-at-a-time (addr must
	// be word aligned).
	LoadBytes(addr mem.Addr, n int) []byte
	// LoadBytesInto appends n bytes starting at addr to dst and returns
	// the extended slice — the allocation-free LoadBytes for hot paths
	// that recycle a scratch buffer (pass dst[:0] to reuse its capacity).
	LoadBytesInto(dst []byte, addr mem.Addr, n int) []byte
	StoreBytes(addr mem.Addr, b []byte)
	// Compute accounts n non-memory instructions of workload work.
	Compute(n uint64)
	// ThreadID identifies the hardware thread.
	ThreadID() int
}

// simFault carries a machine error out of workload code.
type simFault struct{ err error }

// crashFault unwinds a suspended thread when the machine loses power.
type crashFault struct{}

type threadCtx struct {
	s    *System
	id   int
	core coreIface

	inTx     bool
	txStart  uint64 // cycle of the current transaction's begin
	hwTx     *core.Tx
	writeSet *txn.WriteSet

	swTxID    uint16
	swSetup   bool   // per-tx software logging setup charged
	swStarted bool   // this tx has appended at least one record
	swStart   uint64 // sequence of this tx's first record

	oracleTx *txRecord

	// The thread's coroutine (RunN): next runs it, yieldFn hands back, stop unwinds.
	next     func() (struct{}, bool)
	stop     func()
	yieldFn  func(struct{}) bool
	finished bool
	err      error
}

func newThreadCtx(s *System, id int, c coreIface) *threadCtx {
	return &threadCtx{
		s: s, id: id, core: c,
		writeSet: txn.NewWriteSet(),
	}
}

// coreIface matches *cpu.Core (kept as an interface so tests can stub it).
type coreIface interface {
	Now() uint64
	Compute(uint64)
	Load(uint64)
	Store(uint64)
	Fence(uint64)
	Instr(uint64)
	StallUntil(uint64)
}

func (t *threadCtx) ThreadID() int { return t.id }

// traceTxID is the id stamped on this thread's trace events: the
// hardware physical TxID when one is held, else the software txid.
func (t *threadCtx) traceTxID() uint16 {
	if t.hwTx != nil {
		return t.hwTx.TxID()
	}
	return t.swTxID
}

// yield ends every operation with the scheduler's step: housekeeping at
// global time, then the pick. While this thread is still the pick and no
// crash is due it simply runs on — exactly what RunN would grant — and only
// otherwise hands the machine back. The other threads are suspended
// coroutines, so the state the step reads is quiescent. A false return
// means RunN stopped this thread because the machine crashed.
func (t *threadCtx) yield() {
	t.s.housekeep()
	if t.s.pick() == t && !t.s.crashDue(t) {
		return
	}
	if !t.yieldFn(struct{}{}) {
		panic(crashFault{})
	}
}

func (t *threadCtx) fault(err error) {
	panic(simFault{err: err})
}

// run executes the workload function, converting panics to results.
func (t *threadCtx) run(w func(Ctx, int)) {
	defer func() {
		if r := recover(); r != nil {
			switch f := r.(type) {
			case crashFault:
				// Power loss: the open transaction dies with the machine
				// (recovery will roll it back from the undo log).
				if t.inTx {
					t.s.tracer.EmitSpan(t.id, t.core.Now(), obs.KindTxAbort, t.traceTxID(), 0, t.s.reqSpan)
				}
			case simFault:
				t.err = f.err
			default:
				t.err = fmt.Errorf("sim: workload panic on thread %d: %v", t.id, r)
			}
		}
		t.finished = true
	}()
	w(t, t.id)
}

func (t *threadCtx) isPersistent(addr mem.Addr) bool {
	return t.s.heap.Contains(addr, mem.WordSize)
}

// --- Ctx implementation ---

func (t *threadCtx) Compute(n uint64) {
	t.core.Compute(n)
	t.yield()
}

func (t *threadCtx) Load(addr mem.Addr) mem.Word {
	if !addr.IsWordAligned() {
		t.fault(fmt.Errorf("sim: unaligned load at %v", addr))
	}
	w, done, _ := t.s.hier.LoadWord(t.core.Now(), t.id, addr)
	t.core.Load(done)
	t.yield()
	return w
}

func (t *threadCtx) Store(addr mem.Addr, w mem.Word) {
	if !addr.IsWordAligned() {
		t.fault(fmt.Errorf("sim: unaligned store at %v", addr))
	}
	t.storeWord(addr, w)
	t.yield()
}

// storeWord dispatches on the active design (no yield; callers yield).
func (t *threadCtx) storeWord(addr mem.Addr, w mem.Word) {
	persistent := t.inTx && t.isPersistent(addr)
	if !persistent {
		_, done, _ := t.s.hier.StoreWord(t.core.Now(), t.id, addr, w)
		t.core.Store(done)
		return
	}
	spec := t.s.spec
	switch {
	case spec.SWLog:
		t.swStore(addr, w)
	case spec.HWLog:
		t.hwStore(addr, w)
	default: // non-pers
		_, done, _ := t.s.hier.StoreWord(t.core.Now(), t.id, addr, w)
		t.core.Store(done)
	}
	t.writeSet.Add(addr)
	if t.oracleTx != nil {
		t.oracleTx.writes = append(t.oracleTx.writes, writeRec{addr: addr.WordAligned(), val: w})
	}
}

// hwStore: the HWL engine builds the undo+redo record from the old
// cache-line value (available after the write-allocate) and the in-flight
// store (Figure 3). The record is accepted into the log buffer BEFORE the
// new value is committed to the cache line — the store and its logging are
// one atomic hardware action, so even a log-full emergency write-back can
// never persist un-logged data. The only stall is log-buffer backpressure.
func (t *threadCtx) hwStore(addr mem.Addr, w mem.Word) {
	old, done, _ := t.s.hier.FetchForStore(t.core.Now(), t.id, addr)
	t.core.Store(done)
	hwDone, err := t.s.eng.OnStore(done, t.hwTx, addr, old, w)
	if err != nil {
		t.fault(err)
	}
	if hwDone > t.core.Now() {
		t.core.StallUntil(hwDone)
	}
	if d := t.s.hier.CompleteStore(t.core.Now(), t.id, addr, w); d > t.core.Now() {
		t.core.StallUntil(d)
	}
}

// swStore: software logging per Figure 1 — extra instructions build the
// record, undo logging first loads the old value, redo logging fences
// between the log update and the data store.
func (t *threadCtx) swStore(addr mem.Addr, w mem.Word) {
	spec := t.s.spec
	if !t.swSetup {
		t.core.Compute(txn.SWLogSetupInstr)
		t.swSetup = true
	}
	e := nvlog.Entry{Kind: nvlog.KindUpdate, TxID: t.swTxID, ThreadID: uint8(t.id), Addr: addr.WordAligned()}
	if spec.SWStyle == nvlog.UndoOnly {
		t.core.Compute(txn.SWUndoInstrPerStore)
		old, done, _ := t.s.hier.LoadWord(t.core.Now(), t.id, addr)
		t.core.Load(done)
		e.Undo = old
	} else {
		t.core.Compute(txn.SWRedoInstrPerStore)
		e.Redo = w
	}
	t.swAppend(e)
	if spec.FencePerStore {
		// Redo logging: the log update must reach NVRAM before any data
		// store (Figure 1(b)'s memory_barrier).
		done := t.s.ctl.DrainBuffers(t.core.Now())
		t.core.Fence(done)
	}
	_, sdone, _ := t.s.hier.StoreWord(t.core.Now(), t.id, addr, w)
	t.core.Store(sdone)
}

// swAppend writes one record into the software log through the WCB,
// garbage-collecting the log when full.
func (t *threadCtx) swAppend(e nvlog.Entry) {
	l := t.s.swLog
	for l.Full() {
		t.swGC()
	}
	if !t.swStarted {
		t.swStarted = true
		t.swStart = l.Tail()
		t.s.swActive[t.id] = t.swStart
	}
	writes, err := l.PrepareAppend(e)
	if err != nil {
		t.fault(err)
	}
	done := t.core.Now()
	base := l.Config().Base
	for i, w := range writes {
		if d := t.s.ctl.UncacheableWrite(t.core.Now(), w.Addr, w.Bytes); d > done {
			done = d
		}
		// Same reuse barrier as the hardware path: a head-metadata write
		// preceding the record must complete before the record issues.
		if w.Addr == base && i < len(writes)-1 {
			d := t.s.ctl.DrainBuffers(t.core.Now())
			t.core.Fence(d)
			if d > done {
				done = d
			}
		}
	}
	// The record is built by SWLogStoresPerRecord word stores.
	t.core.Compute(uint64(txn.SWLogStoresPerRecord) - 1)
	t.core.Store(done)
}

// swGC reclaims log space when the circular log fills (Section II-C's
// "conservative cache forced write-back"): software cannot see which lines
// are dirty, so persistent designs flush EVERYTHING dirty before reusing
// records; unsafe designs just overwrite.
func (t *threadCtx) swGC() {
	l := t.s.swLog
	// Software GC code: scan bookkeeping, adjust pointers.
	t.core.Compute(64)
	if t.s.spec.Persistent {
		done := t.s.hier.FlushAllDirty(t.core.Now())
		t.core.Fence(done)
		if t.s.oracle != nil {
			// Everything committed so far is now provably durable.
			for _, rec := range t.s.oracle.txs {
				if rec.committed && t.core.Now() < rec.durableAllAt {
					rec.durableAllAt = t.core.Now()
				}
			}
		}
	}
	// Reclaim records of completed transactions only: everything before
	// the earliest live transaction's first record.
	oldest := l.Tail()
	for _, start := range t.s.swActive {
		if start < oldest {
			oldest = start
		}
	}
	n := oldest - l.Head()
	if n == 0 {
		t.fault(fmt.Errorf("sim: software log wedged by live transactions (log too small)"))
	}
	writes, err := l.Truncate(n)
	if err != nil {
		t.fault(err)
	}
	for _, w := range writes {
		t.s.ctl.UncacheableWrite(t.core.Now(), w.Addr, w.Bytes)
	}
}

func (t *threadCtx) TxBegin() {
	if t.inTx {
		t.fault(fmt.Errorf("sim: nested transaction on thread %d", t.id))
	}
	spec := t.s.spec
	if spec.SWLog || spec.HWLog {
		// non-pers has no transaction instrumentation at all (the paper's
		// ideal baseline); every persistent design pays tx_begin.
		t.core.Compute(txn.TxBeginInstr)
	}
	if spec.HWLog {
		tx, err := t.s.eng.Begin(t.core.Now(), uint8(t.id))
		if err != nil {
			t.fault(err)
		}
		t.hwTx = tx
	}
	if spec.SWLog {
		t.s.swNextTxID++
		t.swTxID = t.s.swNextTxID
		t.swSetup = false
		t.swStarted = false
	}
	t.writeSet.Reset()
	t.inTx = true
	t.txStart = t.core.Now()
	t.s.tracer.EmitSpan(t.id, t.txStart, obs.KindTxBegin, t.traceTxID(), 0, t.s.reqSpan)
	if t.s.oracle != nil {
		id := t.swTxID
		if t.hwTx != nil {
			id = t.hwTx.TxID()
		}
		t.oracleTx = t.s.oracle.beginTx(id)
		if t.hwTx != nil {
			t.s.oracleByHandle[t.hwTx.Handle()] = t.oracleTx
		}
	}
	t.yield()
}

func (t *threadCtx) TxCommit() {
	if !t.inTx {
		t.fault(fmt.Errorf("sim: commit outside transaction on thread %d", t.id))
	}
	spec := t.s.spec
	if spec.SWLog || spec.HWLog {
		t.core.Compute(txn.TxCommitInstr)
	}
	durable := ^uint64(0)
	traceTxID := t.traceTxID()

	switch {
	case spec.HWLog:
		if spec.ClwbAtCommit {
			// hwl: conservative clwb of the write set, then fence, then
			// the commit record.
			t.flushWriteSet()
			durable = t.core.Now()
		}
		done, err := t.s.eng.Commit(t.core.Now(), t.hwTx)
		if err != nil {
			t.fault(err)
		}
		if done > t.core.Now() {
			t.core.StallUntil(done)
		}
		if spec.ClwbAtCommit {
			// The commit record itself must drain for durable commit.
			d := t.s.ctl.DrainBuffers(t.core.Now())
			t.core.Fence(d)
			durable = t.core.Now()
		}
		t.hwTx = nil
	case spec.SWLog:
		t.core.Compute(txn.SWCommitInstr)
		if spec.ClwbAtCommit && spec.SWStyle == nvlog.UndoOnly {
			// undo-clwb: data must be forced out BEFORE the commit record
			// (Figure 1(a)): otherwise recovery would undo committed data.
			t.flushWriteSet()
		}
		if t.swStarted {
			t.swAppend(nvlog.Entry{Kind: nvlog.KindCommit, TxID: t.swTxID, ThreadID: uint8(t.id)})
		}
		if spec.ClwbAtCommit {
			// Commit record durability fence.
			d := t.s.ctl.DrainBuffers(t.core.Now())
			t.core.Fence(d)
			if spec.SWStyle == nvlog.RedoOnly {
				// redo-clwb: flush after commit so the log can truncate.
				t.flushWriteSet()
			}
			durable = t.core.Now()
		}
		delete(t.s.swActive, t.id)
	}

	t.inTx = false
	t.s.tracer.EmitSpan(t.id, t.core.Now(), obs.KindTxCommit, traceTxID, 0, t.s.reqSpan)
	t.s.committedTxns++
	t.s.lastCommitTxID = traceTxID
	t.s.lastCommitBegin = t.txStart
	t.s.lastCommitEnd = t.core.Now()
	if sampleCap := t.s.cfg.TxnLatencySampleCap; sampleCap > 0 && len(t.s.txnLatencies) >= sampleCap {
		// Sliding window: overwrite the oldest sample, allocation-free.
		t.s.txnLatencies[t.s.txnLatSeq%uint64(sampleCap)] = t.core.Now() - t.txStart
		t.s.txnLatSeq++
	} else {
		t.s.txnLatencies = append(t.s.txnLatencies, t.core.Now()-t.txStart)
	}
	if t.oracleTx != nil {
		t.s.oracle.commitTx(t.oracleTx, t.core.Now(), durable)
		t.oracleTx = nil
	}
	t.yield()
}

// flushWriteSet issues clwb for every line the transaction dirtied, then a
// fence waiting for all write-backs (clwb; ...; sfence).
func (t *threadCtx) flushWriteSet() {
	maxDone := t.core.Now()
	for _, line := range t.writeSet.Lines() {
		t.core.Instr(txn.ClwbInstr)
		done, _ := t.s.hier.Flush(t.core.Now(), t.id, line)
		if done > maxDone {
			maxDone = done
		}
	}
	t.core.Fence(maxDone)
}

func (t *threadCtx) LoadBytes(addr mem.Addr, n int) []byte {
	return t.LoadBytesInto(make([]byte, 0, n), addr, n)
}

func (t *threadCtx) LoadBytesInto(dst []byte, addr mem.Addr, n int) []byte {
	if !addr.IsWordAligned() {
		t.fault(fmt.Errorf("sim: unaligned LoadBytes at %v", addr))
	}
	now := t.core.Now()
	for got := 0; got < n; got += mem.WordSize {
		w, done, _ := t.s.hier.LoadWord(now, t.id, addr+mem.Addr(got))
		t.core.Load(done)
		now = t.core.Now()
		take := n - got
		if take > mem.WordSize {
			take = mem.WordSize
		}
		for i := 0; i < take; i++ {
			dst = append(dst, byte(w>>(8*i)))
		}
	}
	t.yield()
	return dst
}

func (t *threadCtx) StoreBytes(addr mem.Addr, b []byte) {
	if !addr.IsWordAligned() {
		t.fault(fmt.Errorf("sim: unaligned StoreBytes at %v", addr))
	}
	for off := 0; off < len(b); off += mem.WordSize {
		a := addr + mem.Addr(off)
		var w mem.Word
		if off+mem.WordSize <= len(b) {
			for i := mem.WordSize - 1; i >= 0; i-- {
				w = w<<8 | mem.Word(b[off+i])
			}
		} else {
			// Partial tail word: read-modify-write.
			cur, done, _ := t.s.hier.LoadWord(t.core.Now(), t.id, a)
			t.core.Load(done)
			w = cur
			for i := 0; i < len(b)-off; i++ {
				shift := uint(8 * i)
				w = (w &^ (0xff << shift)) | mem.Word(b[off+i])<<shift
			}
		}
		t.storeWord(a, w)
	}
	t.yield()
}
