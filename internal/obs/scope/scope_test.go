package scope

import (
	"testing"
)

// TestLineSketchMembership checks insert/lookup/remove and the O(1)
// epoch clear.
func TestLineSketchMembership(t *testing.T) {
	var s LineSketch
	if s.Touch(42) {
		t.Fatal("fresh sketch reported 42 present")
	}
	if !s.Touch(42) {
		t.Fatal("second Touch(42) not reported as repeat")
	}
	if s.Touch(43) {
		t.Fatal("43 reported present before insert")
	}
	if !s.Remove(43) {
		t.Fatal("Remove(43) failed after insert")
	}
	if s.Remove(43) {
		t.Fatal("Remove(43) succeeded twice")
	}
	if s.Touch(43) {
		t.Fatal("43 present after removal")
	}
	s.Clear()
	if s.Touch(42) {
		t.Fatal("42 survived Clear")
	}
	// The zero tag is remapped, not treated as an empty slot.
	if s.Touch(0) {
		t.Fatal("fresh zero tag reported present")
	}
	if !s.Touch(0) {
		t.Fatal("repeated zero tag not reported")
	}
}

// TestLineSketchFullNeighborhood: when a probe neighborhood fills with
// live tags, further inserts are dropped and recurrence is undercounted
// — never overcounted.
func TestLineSketchFullNeighborhood(t *testing.T) {
	var s LineSketch
	// Tags landing on the same home slot: tag, tag+sketchSlots, ...
	base := uint64(7)
	for i := uint64(0); i < sketchProbes; i++ {
		if s.Touch(base + i*sketchSlots) {
			t.Fatalf("collision tag %d reported present on first touch", i)
		}
	}
	// Neighborhood is full: the next colliding tag cannot be inserted,
	// so touching it twice must report false both times.
	over := base + sketchProbes*sketchSlots
	if s.Touch(over) || s.Touch(over) {
		t.Fatal("overflowing tag reported present (recurrence invented)")
	}
	// The resident tags still hit.
	if !s.Touch(base) {
		t.Fatal("resident tag lost")
	}
}

// TestCountersLedger drives the full accounting surface and checks the
// derived views.
func TestCountersLedger(t *testing.T) {
	var c Counters

	// Txn 1: three stores, two on the same line -> one coalescible.
	c.NoteLogBytes(0, 0, 30, 2) // header record
	for i, line := range []uint64{64, 128, 64} {
		_ = i
		c.NoteStore(1, line, 8)
		c.NoteLogBytes(8, 8, 14, 2)
	}
	c.NoteLogBytes(0, 0, 30, 2) // commit record
	c.NoteTxnCommit(24, 5*32)

	if c.PayloadBytes != 24 || c.UpdateAppends != 3 {
		t.Fatalf("payload=%d appends=%d", c.PayloadBytes, c.UpdateAppends)
	}
	if c.CoalescibleAppends != 1 {
		t.Fatalf("coalescible = %d, want 1", c.CoalescibleAppends)
	}
	// The four byte classes split the five 32-byte records exactly.
	if c.LogUndoBytes != 24 || c.LogRedoBytes != 24 || c.LogHeaderBytes != 102 || c.LogChecksumBytes != 10 {
		t.Fatalf("byte split: undo=%d redo=%d hdr=%d cs=%d",
			c.LogUndoBytes, c.LogRedoBytes, c.LogHeaderBytes, c.LogChecksumBytes)
	}
	if c.TxnsMeasured != 1 || c.TxnAmpMilliSum != 160*1000/24 {
		t.Fatalf("txn amp: n=%d sum=%d", c.TxnsMeasured, c.TxnAmpMilliSum)
	}

	// Txn 2 revisits line 64: a different handle means a different tag,
	// so cross-txn repetition is NOT coalescible.
	c.NoteStore(2, 64, 8)
	if c.CoalescibleAppends != 1 {
		t.Fatalf("cross-txn repeat counted coalescible: %d", c.CoalescibleAppends)
	}

	// FWB efficiency: two forced write-backs, one forced line re-dirtied
	// before the next scan.
	c.NoteForcedWB(64)
	c.NoteForcedWB(128)
	c.NoteDirtied(64)  // wasted: flushed then re-dirtied
	c.NoteDirtied(256) // never flushed: not wasted
	if c.WastedForcedWB != 1 {
		t.Fatalf("wasted=%d", c.WastedForcedWB)
	}
	// After a scan pass the old forced set no longer counts as wasted.
	c.NoteScan()
	c.NoteDirtied(128)
	if c.WastedForcedWB != 1 {
		t.Fatalf("post-scan re-dirty counted wasted: %d", c.WastedForcedWB)
	}
}

// TestCountersZeroTxnPayload: a transaction with no stores is not
// measured (no amplification denominator).
func TestCountersZeroTxnPayload(t *testing.T) {
	var c Counters
	c.NoteTxnCommit(0, 64)
	if c.TxnsMeasured != 0 || c.TxnAmpMilliSum != 0 {
		t.Fatalf("empty txn measured: n=%d sum=%d", c.TxnsMeasured, c.TxnAmpMilliSum)
	}
}

// TestCountersNilSafe: every hot-path method tolerates a nil receiver
// (an unscoped machine pays one branch, like a detached tracer).
func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.NoteLogBytes(1, 2, 3, 4)
	c.NoteStore(1, 64, 8)
	c.NoteTxnCommit(8, 32)
	c.NoteForcedWB(64)
	c.NoteDirtied(64)
	c.NoteScan()
}

// TestScopeZeroAllocSteadyState is the acceptance guard: the
// append/FWB accounting hot paths allocate nothing per operation. Run
// under -race by `make scope` (race instrumentation must not hide an
// allocation the production hot path would make).
func TestScopeZeroAllocSteadyState(t *testing.T) {
	var c Counters
	var handle, line uint64
	allocs := testing.AllocsPerRun(1000, func() {
		handle++
		line = (line + 64) & 0xFFFF
		c.NoteLogBytes(0, 0, 30, 2)
		c.NoteStore(handle, line, 8)
		c.NoteStore(handle, line, 8) // recurrence path
		c.NoteLogBytes(8, 8, 14, 2)
		c.NoteDirtied(line)
		c.NoteForcedWB(line)
		c.NoteDirtied(line) // wasted-flush removal path
		c.NoteTxnCommit(16, 96)
		if handle%64 == 0 {
			c.NoteScan()
		}
	})
	if allocs != 0 {
		t.Fatalf("scope accounting hot path allocates %.1f/op, want 0", allocs)
	}
}
