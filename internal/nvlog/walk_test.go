package nvlog_test

import (
	"bytes"
	"io"
	"testing"

	"pmemlog/internal/flight"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/recovery"
)

// TestWalkFollowsCompletedGrow builds an image whose log was migrated once
// by log_grow: the abandoned region still holds transaction 7's update
// record (and no commit), while the successor holds the migrated update,
// transaction 7's commit, and a torn transaction 8. Everything that reads
// a post-crash log — the walk itself, recovery, and the flight doctor —
// must read the successor and agree that 7 committed.
func TestWalkFollowsCompletedGrow(t *testing.T) {
	const (
		oldBase  = mem.Addr(0x10000)
		newBase  = mem.Addr(0x40000)
		dataAddr = mem.Addr(0x80000)
	)
	img := mem.NewPhysical(0, 1<<20)
	apply := func(ws []nvlog.Write, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			img.Write(w.Addr, w.Bytes)
		}
	}
	l, init, err := nvlog.New(nvlog.Config{Base: oldBase, SizeBytes: nvlog.MetaSize + 4*nvlog.FullEntrySize, Style: nvlog.UndoRedo})
	apply(init, err)
	apply(l.PrepareAppend(nvlog.Entry{Kind: nvlog.KindUpdate, TxID: 7, Addr: dataAddr, Undo: 1, Redo: 2}))
	apply(l.Grow(img, nvlog.Config{Base: newBase, SizeBytes: nvlog.MetaSize + 16*nvlog.FullEntrySize, Style: nvlog.UndoRedo}))
	apply([]nvlog.Write{nvlog.ForwardWrite(img, oldBase, newBase)}, nil)
	apply(l.PrepareAppend(nvlog.Entry{Kind: nvlog.KindCommit, TxID: 7}))
	apply(l.PrepareAppend(nvlog.Entry{Kind: nvlog.KindUpdate, TxID: 8, Addr: dataAddr + 8, Undo: 3, Redo: 4}))

	regions, err := nvlog.Walk(img, []mem.Addr{oldBase})
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 || regions[0].Base != newBase || regions[0].Hops != 1 {
		t.Fatalf("walk from %v: %+v, want one region at %v after 1 hop", oldBase, regions, newBase)
	}
	if es := regions[0].Entries; len(es) != 3 || es[1].Kind != nvlog.KindCommit || es[1].TxID != 7 || regions[0].TrueTail != 3 {
		t.Fatalf("walk read %+v (true tail %d), want the successor's 3 records", es, regions[0].TrueTail)
	}

	// The doctor rules on a copy of the same image, then recovery replays it.
	var saved bytes.Buffer
	if _, err := img.WriteTo(&saved); err != nil {
		t.Fatal(err)
	}
	d := &flight.Dump{
		Shards:      1,
		ShardStates: []flight.ShardState{{Shard: 0, LogBases: []uint64{uint64(oldBase)}}},
		InFlight:    []flight.SpanSnapshot{{ID: 1, Op: 0x02, Shard: 0, TxID: 7, Status: -1}},
	}
	an, err := flight.Analyze(d, func(int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(saved.Bytes())), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs := an.Findings(); len(fs) != 1 || fs[0].Verdict != flight.VerdictCommitted || fs[0].Records != 2 || !fs[0].Agrees {
		t.Fatalf("doctor on the grown image: %+v, want txn 7 committed with 2 records, agreeing with replay", fs)
	}

	rep, err := recovery.RecoverAll(img, []mem.Addr{oldBase})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hops) != 1 || rep.Hops[0] != 1 || rep.EntriesScanned != 3 ||
		len(rep.Committed) != 1 || rep.Committed[0] != 7 || len(rep.Uncommitted) != 1 || rep.Uncommitted[0] != 8 {
		t.Fatalf("recovery on the grown image: %+v", rep)
	}
}
