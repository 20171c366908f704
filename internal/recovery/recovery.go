// Package recovery implements the paper's four-step recovery procedure
// (Section IV-F):
//
//  1. Read the log's head and tail pointers from the durable metadata in
//     NVRAM, then discover the true tail with the torn-bit scan.
//  2. Classify transactions: those with a durable commit record committed;
//     the rest did not.
//  3. Repeat history: apply every update record's redo value in log order,
//     then roll back uncommitted transactions by applying their undo
//     values in reverse log order. All writes bypass the (reset, volatile)
//     caches and go directly to NVRAM.
//  4. Reset the log pointers (head = tail = discovered tail, preserving
//     torn-bit parity for the next pass).
//
// The redo-then-undo order is ARIES-style repeating history; like the
// paper, it assumes transactions are isolated (no transaction reads or
// overwrites another live transaction's uncommitted data).
package recovery

import (
	"fmt"
	"sort"

	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
)

// Report summarizes one recovery pass. The JSON tags let services persist
// or expose boot-time recovery evidence (pmserver's stats endpoint).
type Report struct {
	EntriesScanned int      `json:"entries_scanned"`
	Committed      []uint16 `json:"committed"`   // transaction IDs redone
	Uncommitted    []uint16 `json:"uncommitted"` // transaction IDs rolled back
	RedoWrites     int      `json:"redo_writes"`
	UndoWrites     int      `json:"undo_writes"`
	TrueTail       uint64   `json:"true_tail"`
	// Heads holds each recovered region's durable head pointer (in
	// logBases order). A transaction whose records all lie below its
	// region's durable head was truncated with full durability evidence —
	// the durable head write was ordered after the data write-backs that
	// allowed the truncation.
	Heads []uint64 `json:"heads"`
	// Hops counts the log_grow forward pointers followed per region: a
	// durable forward proves everything ordered before that grow —
	// including all earlier truncations' data write-backs — reached NVRAM.
	Hops []int `json:"hops"`
	// RejectedAddrs counts update records whose target address fell
	// outside the NVRAM image. A record can pass the torn-bit decode with
	// a garbage body: the torn bit, magic, and pass stamp all live in the
	// record's first 8-byte word, and NVRAM tears at write-unit (not
	// record) granularity, so a crash mid-record leaves a valid header
	// over a stale or scrubbed body. Such a record's store can never have
	// reached NVRAM (the log-before-data interlock orders data behind the
	// *completed* record write), so skipping it is the only sound move —
	// dereferencing it would fault the recovery handler.
	RejectedAddrs int `json:"rejected_addrs,omitempty"`
}

// RecoverAll runs the full procedure against a post-crash NVRAM image.
// logBases are the log regions' base addresses (held in the special
// registers which the platform re-derives from firmware configuration):
// one central log, or distributed per-thread logs (Section III-F). Each
// region is scanned independently, the surviving records are merged, and
// the redo/undo passes run over the union. Like the paper, this relies on
// transaction isolation — no two live transactions (which necessarily live
// in different logs) touch the same word, so cross-log record order is
// immaterial.
func RecoverAll(img *mem.Physical, logBases []mem.Addr) (Report, error) {
	var rep Report
	if len(logBases) == 0 {
		return rep, fmt.Errorf("recovery: no log regions")
	}

	// Step 1 per region: pointers + torn-bit scan. A region that log_grow
	// migrated away from holds a durable forward pointer to its successor;
	// the walk follows it.
	regions, err := nvlog.Walk(img, logBases)
	if err != nil {
		return rep, fmt.Errorf("recovery: %w", err)
	}
	var entries []nvlog.Entry
	var meta nvlog.Meta
	for _, r := range regions {
		rep.Hops = append(rep.Hops, r.Hops)
		entries = append(entries, r.Entries...)
		rep.EntriesScanned += len(r.Entries)
		rep.TrueTail = r.TrueTail // last region's (single-log callers use this)
		rep.Heads = append(rep.Heads, r.Meta.Head)
		meta = r.Meta
		defer resetMeta(img, r.Base, r.Meta, r.TrueTail) // Step 4, after replay
	}

	// Step 2: classify transactions by durable commit records.
	committed := map[uint16]bool{}
	seen := map[uint16]bool{}
	for _, e := range entries {
		seen[e.TxID] = true
		if e.Kind == nvlog.KindCommit {
			committed[e.TxID] = true
		}
	}

	// Addresses are validated before any dereference: a torn record can
	// carry a valid first word (torn bit, magic, pass stamp) over a
	// garbage body, and recovery must reject it, not fault on it.
	inImage := func(a mem.Addr) bool {
		return a >= img.Base() && uint64(a-img.Base())+mem.WordSize <= img.Size()
	}

	// Step 3a: redo committed transactions' updates in log order.
	style := meta.Style
	for _, e := range entries {
		if e.Kind != nvlog.KindUpdate || !committed[e.TxID] {
			continue
		}
		if style == nvlog.UndoOnly {
			continue // undo-only logs cannot redo (clwb forced the data)
		}
		if !inImage(e.Addr) {
			rep.RejectedAddrs++
			continue
		}
		img.WriteWord(e.Addr, e.Redo)
		rep.RedoWrites++
	}
	// Step 3b: roll back losers in reverse log order. With an undo+redo
	// log, an undo is applied only when the in-NVRAM value matches the
	// record's redo value — the paper's "log entries with mismatched
	// values in NVRAM are considered non-committed" rule; a mismatch means
	// the store never stole its way into NVRAM, so there is nothing to
	// undo.
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.Kind != nvlog.KindUpdate || committed[e.TxID] {
			continue
		}
		if style == nvlog.RedoOnly {
			continue // redo-only logs cannot undo (they rely on ordering)
		}
		if !inImage(e.Addr) {
			rep.RejectedAddrs++
			continue
		}
		if style == nvlog.UndoRedo && img.ReadWord(e.Addr) != e.Redo {
			continue
		}
		img.WriteWord(e.Addr, e.Undo)
		rep.UndoWrites++
	}

	for id := range seen {
		if committed[id] {
			rep.Committed = append(rep.Committed, id)
		} else {
			rep.Uncommitted = append(rep.Uncommitted, id)
		}
	}
	sort.Slice(rep.Committed, func(i, j int) bool { return rep.Committed[i] < rep.Committed[j] })
	sort.Slice(rep.Uncommitted, func(i, j int) bool { return rep.Uncommitted[i] < rep.Uncommitted[j] })

	// Step 4 runs via the deferred resetMeta calls: each region's pointers
	// are reset in place, preserving sequence position so the next pass's
	// torn bits stay unambiguous.
	return rep, nil
}

// resetMeta writes a metadata block with head = tail = trueTail and scrubs
// the record area. The scrub guarantees no stale record from an earlier
// pass — which after multiple crash/reboot generations could carry the
// *current* torn-bit parity — can ever be misread by a future scan. Real
// recovery handlers scrub for the same reason (and it doubles as wear-
// leveling-friendly zeroing).
func resetMeta(img *mem.Physical, base mem.Addr, meta nvlog.Meta, trueTail uint64) {
	buf := img.Read(base, nvlog.MetaSize)
	// Reuse nvlog's encoding by writing the fields directly.
	putWord(buf[8:16], trueTail)
	putWord(buf[16:24], trueTail)
	img.Write(base, buf)
	zero := make([]byte, meta.SlotSize())
	for seq := uint64(0); seq < meta.Capacity; seq++ {
		img.Write(base+nvlog.MetaSize+mem.Addr(seq*meta.SlotSize()), zero)
	}
}

func putWord(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Verify compares the recovered image against an oracle of expected word
// values, returning the mismatching addresses (empty = consistent). Tests
// use this to assert atomicity+durability after random crash injection.
func Verify(img *mem.Physical, expect map[mem.Addr]mem.Word) []mem.Addr {
	var bad []mem.Addr
	for a, want := range expect {
		if img.ReadWord(a) != want {
			bad = append(bad, a)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad
}
