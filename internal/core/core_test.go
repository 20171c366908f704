package core

import (
	"testing"

	"pmemlog/internal/cache"
	"pmemlog/internal/dram"
	"pmemlog/internal/mem"
	"pmemlog/internal/memctl"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/nvram"
)

const nvBase = mem.Addr(1 << 24)

type rig struct {
	nv   *nvram.Device
	ctl  *memctl.Controller
	hier *cache.Hierarchy
	eng  *Engine
}

func nvCfg() nvram.Config {
	return nvram.Config{
		Banks: 8, RowBytes: 2048,
		RowHitCycles: 90, ReadMissCycles: 250, WriteMissCycles: 750,
		BusCyclesPerLine:   10,
		RowBufReadPJPerBit: 0.93, RowBufWritePJPerBit: 1.02,
		ArrayReadPJPerBit: 2.47, ArrayWritePJPerBit: 16.82,
	}
}

func newRig(t *testing.T, logEntries uint64, cfgMut func(*Config)) *rig {
	t.Helper()
	nv, err := nvram.New(nvCfg(), nvBase, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := dram.New(dram.Config{Banks: 8, AccessCycles: 125, BusCyclesLine: 5}, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := memctl.New(memctl.Config{ReadQueue: 64, WriteQueue: 64, WCBEntries: 4, LogBufferEntries: 15, QueueCycles: 2}, nv, dr)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := cache.NewHierarchy(cache.HierarchyConfig{
		NumCores: 2,
		L1:       cache.Config{Name: "L1", SizeBytes: 1024, Ways: 2, HitCycles: 4, ScanCycles: 1},
		L2:       cache.Config{Name: "L2", SizeBytes: 8192, Ways: 4, HitCycles: 11, ScanCycles: 1},
	}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Log: nvlog.Config{
			Base:      nvBase,
			SizeBytes: nvlog.MetaSize + logEntries*nvlog.FullEntrySize,
			Style:     nvlog.UndoRedo,
		},
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	init, err := Format(cfg.Log, cfg.NumLogs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range init {
		nv.Image().Write(w.Addr, w.Bytes)
	}
	eng, err := New(cfg, ctl, hier)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{nv: nv, ctl: ctl, hier: hier, eng: eng}
}

// dataAddr returns a persistent data address outside the log region.
func dataAddr(i int) mem.Addr { return nvBase + 1<<21 + mem.Addr(i*mem.LineSize) }

func TestBeginCommitLifecycle(t *testing.T) {
	r := newRig(t, 64, nil)
	tx, err := r.eng.Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.eng.ActiveTransactions() != 1 {
		t.Error("active count != 1")
	}
	// A store emits header + update records.
	old, done, _ := r.hier.StoreWord(0, 0, dataAddr(0), 42)
	if _, err := r.eng.OnStore(done, tx, dataAddr(0), old, 42); err != nil {
		t.Fatal(err)
	}
	if r.eng.Log().Len() != 2 {
		t.Errorf("live records = %d, want 2 (header+update)", r.eng.Log().Len())
	}
	if _, err := r.eng.Commit(1000, tx); err != nil {
		t.Fatal(err)
	}
	if r.eng.ActiveTransactions() != 0 {
		t.Error("active count after commit != 0")
	}
	if r.eng.Stats().Commits != 1 {
		t.Error("commit not counted")
	}
}

func TestEmptyTransactionWritesNoRecords(t *testing.T) {
	r := newRig(t, 64, nil)
	tx, _ := r.eng.Begin(0, 0)
	r.eng.Commit(10, tx)
	if got := r.eng.Stats().Records; got != 0 {
		t.Errorf("empty tx wrote %d records", got)
	}
}

func TestTxIDExhaustionAndReuse(t *testing.T) {
	r := newRig(t, 8192, nil)
	var txs []*Tx
	for i := 0; i < 256; i++ {
		tx, err := r.eng.Begin(0, 0)
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		txs = append(txs, tx)
	}
	if _, err := r.eng.Begin(0, 0); err != ErrTxLimit {
		t.Fatalf("257th begin: %v, want ErrTxLimit", err)
	}
	// Committing one frees a physical ID.
	r.eng.Commit(0, txs[0])
	if _, err := r.eng.Begin(0, 0); err != nil {
		t.Fatalf("begin after commit: %v", err)
	}
}

func TestTruncationRequiresCommitAndPersistence(t *testing.T) {
	r := newRig(t, 64, nil)
	tx, _ := r.eng.Begin(0, 0)
	old, done, _ := r.hier.StoreWord(0, 0, dataAddr(1), 7)
	r.eng.OnStore(done, tx, dataAddr(1), old, 7)

	// Uncommitted: nothing truncatable.
	if n := r.eng.TryTruncate(1e6); n != 0 {
		t.Fatalf("truncated %d records of live tx", n)
	}
	r.eng.Commit(2000, tx) // commit-time truncation drops the header
	// Committed but the line is still dirty in cache: update pinned.
	if n := r.eng.TryTruncate(1e6); n != 0 {
		t.Fatalf("truncated %d records while line dirty", n)
	}
	// Flush the line; truncation must now drain the rest (update+commit).
	fdone, _ := r.hier.Flush(3000, 0, dataAddr(1))
	if n := r.eng.TryTruncate(fdone); n != 2 {
		t.Fatalf("truncated %d records after flush, want 2", n)
	}
	if r.eng.Log().Len() != 0 {
		t.Errorf("log not empty after truncation: %d", r.eng.Log().Len())
	}
}

func TestTruncationWaitsForInFlightWriteBack(t *testing.T) {
	r := newRig(t, 64, nil)
	tx, _ := r.eng.Begin(0, 0)
	old, done, _ := r.hier.StoreWord(0, 0, dataAddr(2), 9)
	r.eng.OnStore(done, tx, dataAddr(2), old, 9)
	r.eng.Commit(2000, tx)
	fdone, _ := r.hier.Flush(3000, 0, dataAddr(2))
	// At a time before the write-back completes, the record is pinned.
	if n := r.eng.TryTruncate(3000); n != 0 {
		t.Fatalf("truncated %d records with write-back in flight", n)
	}
	if n := r.eng.TryTruncate(fdone); n == 0 {
		t.Fatal("truncation still blocked after write-back completed")
	}
}

func TestFullLogEmergencyFlushUnwedges(t *testing.T) {
	// Tiny log: 8 slots. One committed tx whose line stays dirty pins the
	// head; the next append must trigger the targeted emergency flush.
	r := newRig(t, 8, nil)
	tx, _ := r.eng.Begin(0, 0)
	now := uint64(0)
	for i := 0; i < 6; i++ { // header + 6 updates + commit = 8 records
		old, done, _ := r.hier.StoreWord(now, 0, dataAddr(3), mem.Word(i))
		d, err := r.eng.OnStore(done, tx, dataAddr(3), old, mem.Word(i))
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if _, err := r.eng.Commit(now, tx); err != nil {
		t.Fatal(err)
	}
	// Commit truncated only the header (the line is still dirty), leaving
	// 7 live records in the 8-slot log. A new transaction needs 2 records;
	// the engine must unwedge itself with a targeted flush.
	tx2, _ := r.eng.Begin(now, 0)
	old, done, _ := r.hier.StoreWord(now, 0, dataAddr(4), 1)
	if _, err := r.eng.OnStore(done, tx2, dataAddr(4), old, 1); err != nil {
		t.Fatalf("append into full log: %v", err)
	}
	if r.eng.Stats().EmergencyFlush == 0 {
		t.Error("emergency flush never ran")
	}
}

func TestLogGrowOnUncommittedOverflow(t *testing.T) {
	growBase := nvBase + 1<<20
	r := newRig(t, 8, func(c *Config) { c.GrowFactor = 4 })
	r.eng.SetGrowRegion(func(size uint64) (mem.Addr, bool) { return growBase, true })
	tx, _ := r.eng.Begin(0, 0)
	now := uint64(0)
	// 20 updates >> 8 slots, all in one uncommitted transaction.
	for i := 0; i < 20; i++ {
		old, done, _ := r.hier.StoreWord(now, 0, dataAddr(5+i), mem.Word(i))
		d, err := r.eng.OnStore(done, tx, dataAddr(5+i), old, mem.Word(i))
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		now = d
	}
	if r.eng.Stats().Grows == 0 {
		t.Fatal("log never grew")
	}
	if _, err := r.eng.Commit(now, tx); err != nil {
		t.Fatal(err)
	}
}

func TestLogWedgedWithoutGrow(t *testing.T) {
	r := newRig(t, 8, nil) // GrowFactor 0: growing disabled
	tx, _ := r.eng.Begin(0, 0)
	now := uint64(0)
	var lastErr error
	for i := 0; i < 20 && lastErr == nil; i++ {
		old, done, _ := r.hier.StoreWord(now, 0, dataAddr(30+i), 1)
		now, lastErr = r.eng.OnStore(done, tx, dataAddr(30+i), old, 1)
	}
	if lastErr != ErrLogWedged {
		t.Fatalf("overflowing uncommitted tx: %v, want ErrLogWedged", lastErr)
	}
}

func TestUnsafeModeOverwritesWithoutStalling(t *testing.T) {
	// No periodic tail sync, so every log byte is a record or a head sync.
	r := newRig(t, 8, func(c *Config) {
		c.Unsafe = true
		c.Log.MetaEvery = 1 << 20
	})
	tx, _ := r.eng.Begin(0, 0)
	now := uint64(0)
	for i := 0; i < 30; i++ {
		old, done, _ := r.hier.StoreWord(now, 0, dataAddr(60+i), 1)
		d, err := r.eng.OnStore(done, tx, dataAddr(60+i), old, 1)
		if err != nil {
			t.Fatalf("unsafe store %d: %v", i, err)
		}
		now = d
	}
	if r.eng.Stats().UnsafeOverwrite == 0 {
		t.Error("unsafe mode never overwrote")
	}
	if r.eng.Stats().EmergencyFlush != 0 || r.eng.Stats().Grows != 0 {
		t.Error("unsafe mode used safe slow paths")
	}
	// The unsafe log keeps no durable head: wrapping writes its records'
	// bytes and no sync-before-reuse metadata line.
	recs := r.eng.Stats().Records
	if recs <= r.eng.Log().Capacity() {
		t.Fatalf("%d records never wrapped a %d-slot log", recs, r.eng.Log().Capacity())
	}
	if got, want := r.ctl.Stats().LogWriteBytes, recs*nvlog.FullEntrySize; got != want {
		t.Errorf("log write bytes = %d, want %d (records only)", got, want)
	}
}

func TestFwbTickScansOnSchedule(t *testing.T) {
	r := newRig(t, 1024, func(c *Config) { c.FwbScanInterval = 1000 })
	tx, _ := r.eng.Begin(0, 0)
	old, done, _ := r.hier.StoreWord(0, 0, dataAddr(100), 5)
	r.eng.OnStore(done, tx, dataAddr(100), old, 5)
	r.eng.Commit(500, tx)

	if r.eng.FwbTick(999) {
		t.Error("scan ran before interval elapsed")
	}
	if !r.eng.FwbTick(1000) {
		t.Error("scan did not run at interval")
	}
	if r.eng.FwbTick(1500) {
		t.Error("scan re-ran within the same interval")
	}
	// Second scan (FWB phase) forces the dirty line out; after it the
	// truncation drains the log.
	if !r.eng.FwbTick(2000) {
		t.Error("second scan did not run")
	}
	// Give the posted write-back time to complete, then truncate.
	r.eng.TryTruncate(1 << 30)
	if r.eng.Log().Len() != 0 {
		t.Errorf("records remain after FWB passes: %d", r.eng.Log().Len())
	}
	if !r.ctl.NVRAM().Image().Contains(dataAddr(100), 8) {
		t.Fatal("data address outside NVRAM")
	}
	if got := r.ctl.NVRAM().Image().ReadWord(dataAddr(100)); got != 5 {
		t.Errorf("FWB did not persist the store: %d", got)
	}
}

func TestFwbDisabled(t *testing.T) {
	r := newRig(t, 64, func(c *Config) { c.DisableFWB = true })
	if r.eng.FwbTick(1 << 40) {
		t.Error("disabled FWB ran a scan")
	}
}

func TestDeriveScanInterval(t *testing.T) {
	// 4 MB log of 32 B entries = 128Ki slots; avg append = 55.3 cycles per
	// entry (single-bank conservative bandwidth); safety 2 => ~3.6M
	// cycles, matching the paper's "every three million cycles ... with a
	// 4MB log" (Fig 11b).
	logCfg := nvlog.Config{Base: nvBase, SizeBytes: nvlog.MetaSize + 4<<20, Style: nvlog.UndoRedo}
	got := DeriveScanInterval(logCfg, nvCfg())
	if got < 3_000_000 || got > 4_000_000 {
		t.Errorf("scan interval for 4MB log = %d, want ~3.6M cycles", got)
	}
	// Interval scales linearly with log size.
	logCfg2 := logCfg
	logCfg2.SizeBytes = nvlog.MetaSize + 8<<20
	if got2 := DeriveScanInterval(logCfg2, nvCfg()); got2 < 2*got-100 || got2 > 2*got+100 {
		t.Errorf("interval did not scale: %d vs %d", got2, got)
	}
}

func TestRecordsCarryTxIdentity(t *testing.T) {
	r := newRig(t, 64, nil)
	tx, _ := r.eng.Begin(0, 3)
	old, done, _ := r.hier.StoreWord(0, 0, dataAddr(7), 11)
	r.eng.OnStore(done, tx, dataAddr(7), old, 11)
	r.ctl.DrainBuffers(1 << 20)

	// Before commit: header + update are durable.
	meta, err := nvlog.ReadMeta(r.nv.Image(), r.eng.Log().Config().Base)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := nvlog.Scan(r.nv.Image(), r.eng.Log().Config().Base, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Kind != nvlog.KindHeader || entries[1].Kind != nvlog.KindUpdate {
		t.Fatalf("pre-commit records: %d entries", len(entries))
	}

	r.eng.Commit(1000, tx)
	r.ctl.DrainBuffers(1 << 21)
	// Commit-time truncation drops the header from the volatile head, but
	// the lazily-persisted durable head may still expose it to a scan
	// (which is safe: replaying it is a no-op). The update and commit
	// records must be present in order.
	meta, _ = nvlog.ReadMeta(r.nv.Image(), r.eng.Log().Config().Base)
	entries, _, err = nvlog.Scan(r.nv.Image(), r.eng.Log().Config().Base, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("post-commit records: %d entries", len(entries))
	}
	last := entries[len(entries)-1]
	upd := entries[len(entries)-2]
	if upd.Kind != nvlog.KindUpdate || last.Kind != nvlog.KindCommit {
		t.Fatalf("post-commit record kinds: %v", entries)
	}
	u := upd
	if u.TxID != tx.TxID() || u.ThreadID != 3 || u.Addr != dataAddr(7) || u.Redo != 11 {
		t.Errorf("update record: %+v", u)
	}
	if u.Undo != 0 {
		t.Errorf("undo value = %d, want 0 (fresh line)", u.Undo)
	}
}

func TestUndoValueCapturedFromCache(t *testing.T) {
	r := newRig(t, 64, nil)
	// Seed NVRAM with an old value; the store miss write-allocates and the
	// undo value must be the pre-store content (Figure 3(c)).
	r.nv.Image().WriteWord(dataAddr(8), 123)
	tx, _ := r.eng.Begin(0, 0)
	old, done, _ := r.hier.StoreWord(0, 0, dataAddr(8), 456)
	r.eng.OnStore(done, tx, dataAddr(8), old, 456)
	r.eng.Commit(1000, tx)
	r.ctl.DrainBuffers(1 << 20)

	meta, _ := nvlog.ReadMeta(r.nv.Image(), r.eng.Log().Config().Base)
	entries, _, _ := nvlog.Scan(r.nv.Image(), r.eng.Log().Config().Base, meta)
	var upd *nvlog.Entry
	for i := range entries {
		if entries[i].Kind == nvlog.KindUpdate {
			upd = &entries[i]
		}
	}
	if upd == nil || upd.Undo != 123 || upd.Redo != 456 {
		t.Fatalf("update record undo/redo: %+v", upd)
	}
}

// The adaptive FWB governor: emergency flushes (scans losing to the append
// rate) halve the scan interval; low occupancy relaxes it back to the law.
func TestFwbGovernorAdapts(t *testing.T) {
	r := newRig(t, 8, func(c *Config) { c.FwbScanInterval = 0 })
	base := r.eng.ScanInterval()
	if base == 0 {
		t.Fatal("no derived interval")
	}
	// Saturate the tiny log with committed-but-dirty records until the
	// emergency path fires.
	now := uint64(0)
	for i := 0; i < 6; i++ {
		tx, _ := r.eng.Begin(now, 0)
		old, done, _ := r.hier.StoreWord(now, 0, dataAddr(500+i), 1)
		if _, err := r.eng.OnStore(done, tx, dataAddr(500+i), old, 1); err != nil {
			t.Fatal(err)
		}
		d, err := r.eng.Commit(done+10, tx)
		if err != nil {
			t.Fatal(err)
		}
		now = d + 10
	}
	if r.eng.Stats().EmergencyFlush == 0 {
		t.Fatal("emergency path never fired; governor untested")
	}
	if got := r.eng.ScanInterval(); got >= base {
		t.Errorf("governor did not speed up: interval %d, base %d", got, base)
	}
	// Drain the log completely, then let scans relax the interval back.
	r.hier.FlushAllDirty(now)
	r.eng.TryTruncate(1 << 40)
	shrunk := r.eng.ScanInterval()
	tick := now + 1<<20
	for i := 0; i < 64 && r.eng.ScanInterval() < base; i++ {
		r.eng.FwbTick(tick)
		tick += r.eng.ScanInterval() + 1
	}
	if got := r.eng.ScanInterval(); got <= shrunk {
		t.Errorf("governor never relaxed: %d (shrunk %d, base %d)", got, shrunk, base)
	}
}
