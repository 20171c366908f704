package recovery

import (
	"testing"

	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
)

const logBase = mem.Addr(0x10000)

// buildLog writes a log with the given entries into a fresh image,
// simulating what would be durable after a crash.
func buildLog(t *testing.T, entries []nvlog.Entry, drained int) *mem.Physical {
	t.Helper()
	img := mem.NewPhysical(0, 1<<20)
	cfg := nvlog.Config{Base: logBase, SizeBytes: nvlog.MetaSize + 64*nvlog.FullEntrySize, Style: nvlog.UndoRedo, MetaEvery: 1 << 30}
	l, init, err := nvlog.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range init {
		img.Write(w.Addr, w.Bytes)
	}
	for i, e := range entries {
		ws, err := l.PrepareAppend(e)
		if err != nil {
			t.Fatal(err)
		}
		if i < drained { // entries beyond `drained` were lost in the buffer
			for _, w := range ws {
				img.Write(w.Addr, w.Bytes)
			}
		}
	}
	return img
}

func upd(tx uint16, addr mem.Addr, undo, redo mem.Word) nvlog.Entry {
	return nvlog.Entry{Kind: nvlog.KindUpdate, TxID: tx, Addr: addr, Undo: undo, Redo: redo}
}
func commit(tx uint16) nvlog.Entry { return nvlog.Entry{Kind: nvlog.KindCommit, TxID: tx} }
func header(tx uint16) nvlog.Entry { return nvlog.Entry{Kind: nvlog.KindHeader, TxID: tx} }

func TestRedoCommittedTransaction(t *testing.T) {
	// Committed tx wrote 42 at 0x100, but the dirty line never reached
	// NVRAM (image still holds the old value 7). Recovery must redo.
	entries := []nvlog.Entry{header(1), upd(1, 0x100, 7, 42), commit(1)}
	img := buildLog(t, entries, len(entries))
	img.WriteWord(0x100, 7)

	rep, err := RecoverAll(img, []mem.Addr{logBase})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.ReadWord(0x100); got != 42 {
		t.Errorf("redo: word = %d, want 42", got)
	}
	if len(rep.Committed) != 1 || rep.Committed[0] != 1 || rep.RedoWrites != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestUndoUncommittedTransaction(t *testing.T) {
	// Uncommitted tx's store leaked to NVRAM (stolen page); undo it.
	entries := []nvlog.Entry{header(2), upd(2, 0x200, 7, 42)}
	img := buildLog(t, entries, len(entries))
	img.WriteWord(0x200, 42) // the "steal" happened

	rep, err := RecoverAll(img, []mem.Addr{logBase})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.ReadWord(0x200); got != 7 {
		t.Errorf("undo: word = %d, want 7", got)
	}
	if len(rep.Uncommitted) != 1 || rep.UndoWrites != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestUndoReversesMultipleUpdatesInOrder(t *testing.T) {
	// Same word updated twice by an uncommitted tx: undo must restore the
	// ORIGINAL value (reverse order), not the intermediate one.
	entries := []nvlog.Entry{
		header(3),
		upd(3, 0x300, 1, 2), // 1 -> 2
		upd(3, 0x300, 2, 3), // 2 -> 3
	}
	img := buildLog(t, entries, len(entries))
	img.WriteWord(0x300, 3)
	if _, err := RecoverAll(img, []mem.Addr{logBase}); err != nil {
		t.Fatal(err)
	}
	if got := img.ReadWord(0x300); got != 1 {
		t.Errorf("reverse undo: word = %d, want 1", got)
	}
}

func TestMixedTransactions(t *testing.T) {
	// Tx 1 committed (redo to 10); tx 2 uncommitted (undo to 5). Different
	// addresses (isolation).
	entries := []nvlog.Entry{
		header(1), upd(1, 0x400, 9, 10),
		header(2), upd(2, 0x440, 5, 6),
		commit(1),
	}
	img := buildLog(t, entries, len(entries))
	img.WriteWord(0x400, 9) // committed data never written back
	img.WriteWord(0x440, 6) // uncommitted data stolen into NVRAM
	rep, err := RecoverAll(img, []mem.Addr{logBase})
	if err != nil {
		t.Fatal(err)
	}
	if img.ReadWord(0x400) != 10 || img.ReadWord(0x440) != 5 {
		t.Errorf("mixed recovery: %d %d, want 10 5", img.ReadWord(0x400), img.ReadWord(0x440))
	}
	if len(rep.Committed) != 1 || len(rep.Uncommitted) != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestLostTailEntriesIgnored(t *testing.T) {
	// The commit record was still in the volatile log buffer at the crash:
	// the transaction must be rolled back.
	entries := []nvlog.Entry{header(4), upd(4, 0x500, 1, 2), commit(4)}
	img := buildLog(t, entries, 2) // commit record never drained
	img.WriteWord(0x500, 2)
	rep, err := RecoverAll(img, []mem.Addr{logBase})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.ReadWord(0x500); got != 1 {
		t.Errorf("lost-commit recovery: word = %d, want 1", got)
	}
	if len(rep.Committed) != 0 || len(rep.Uncommitted) != 1 {
		t.Errorf("report: %+v", rep)
	}
	if rep.EntriesScanned != 2 {
		t.Errorf("scanned %d entries, want 2", rep.EntriesScanned)
	}
}

func TestEmptyLogRecovers(t *testing.T) {
	img := buildLog(t, nil, 0)
	rep, err := RecoverAll(img, []mem.Addr{logBase})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned != 0 || rep.RedoWrites != 0 || rep.UndoWrites != 0 {
		t.Errorf("empty log report: %+v", rep)
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	entries := []nvlog.Entry{header(1), upd(1, 0x600, 3, 4), commit(1)}
	img := buildLog(t, entries, len(entries))
	img.WriteWord(0x600, 3)
	if _, err := RecoverAll(img, []mem.Addr{logBase}); err != nil {
		t.Fatal(err)
	}
	first := img.ReadWord(0x600)
	// A second crash before any new activity: recover again.
	rep, err := RecoverAll(img, []mem.Addr{logBase})
	if err != nil {
		t.Fatal(err)
	}
	if img.ReadWord(0x600) != first {
		t.Error("second recovery changed state")
	}
	if rep.EntriesScanned != 0 {
		t.Errorf("second recovery scanned %d entries, want 0 (pointers reset)", rep.EntriesScanned)
	}
}

func TestRecoveryResetsPointersPreservingSequence(t *testing.T) {
	entries := []nvlog.Entry{header(1), upd(1, 0x700, 0, 1), commit(1)}
	img := buildLog(t, entries, len(entries))
	if _, err := RecoverAll(img, []mem.Addr{logBase}); err != nil {
		t.Fatal(err)
	}
	meta, err := nvlog.ReadMeta(img, logBase)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Head != 3 || meta.Tail != 3 {
		t.Errorf("post-recovery pointers: head=%d tail=%d, want 3/3", meta.Head, meta.Tail)
	}
}

// RecoverAll merges records from multiple (per-thread) log regions.
func TestRecoverAllMultipleRegions(t *testing.T) {
	img := mem.NewPhysical(0, 1<<20)
	bases := []mem.Addr{0x10000, 0x20000}
	logs := make([]*nvlog.Log, 2)
	for i, base := range bases {
		cfg := nvlog.Config{Base: base, SizeBytes: nvlog.MetaSize + 64*nvlog.FullEntrySize, Style: nvlog.UndoRedo, MetaEvery: 1 << 30}
		l, init, err := nvlog.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range init {
			img.Write(w.Addr, w.Bytes)
		}
		logs[i] = l
	}
	appendTo := func(l *nvlog.Log, e nvlog.Entry) {
		ws, err := l.PrepareAppend(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			img.Write(w.Addr, w.Bytes)
		}
	}
	// Log 0: committed tx 1 writes 0x800. Log 1: uncommitted tx 2 stole
	// its write to 0x840 into NVRAM.
	appendTo(logs[0], header(1))
	appendTo(logs[0], upd(1, 0x800, 5, 6))
	appendTo(logs[0], commit(1))
	appendTo(logs[1], header(2))
	appendTo(logs[1], upd(2, 0x840, 7, 8))
	img.WriteWord(0x800, 5) // committed data never written back
	img.WriteWord(0x840, 8) // stolen uncommitted data

	rep, err := RecoverAll(img, bases)
	if err != nil {
		t.Fatal(err)
	}
	if img.ReadWord(0x800) != 6 || img.ReadWord(0x840) != 7 {
		t.Errorf("multi-region recovery: %d %d, want 6 7", img.ReadWord(0x800), img.ReadWord(0x840))
	}
	if rep.EntriesScanned != 5 || len(rep.Committed) != 1 || len(rep.Uncommitted) != 1 {
		t.Errorf("report: %+v", rep)
	}
	// Both regions' pointers must be reset.
	for i, base := range bases {
		meta, err := nvlog.ReadMeta(img, base)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Head != meta.Tail {
			t.Errorf("region %d pointers not reset: %d/%d", i, meta.Head, meta.Tail)
		}
	}
}

func TestRecoverAllNoRegions(t *testing.T) {
	img := mem.NewPhysical(0, 4096)
	if _, err := RecoverAll(img, nil); err == nil {
		t.Error("empty region list accepted")
	}
}

func TestVerify(t *testing.T) {
	img := mem.NewPhysical(0, 4096)
	img.WriteWord(0x10, 5)
	bad := Verify(img, map[mem.Addr]mem.Word{0x10: 5, 0x20: 0})
	if len(bad) != 0 {
		t.Errorf("consistent image reported bad: %v", bad)
	}
	bad = Verify(img, map[mem.Addr]mem.Word{0x10: 6, 0x20: 1})
	if len(bad) != 2 {
		t.Errorf("Verify missed mismatches: %v", bad)
	}
}
