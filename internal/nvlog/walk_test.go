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

// TestWalkRejectsHostileMetadata feeds the log walk images whose base,
// forward pointer or slot range lies outside the image. Every reader
// that goes through Walk — the walk itself, recovery, and the flight
// dump's ReadLog (doctor, scope) — must report an error, never fault.
func TestWalkRejectsHostileMetadata(t *testing.T) {
	const size = 64 << 10
	// logAt builds an image holding one valid log's metadata at base,
	// then lets the case corrupt it.
	logAt := func(t *testing.T, imgBase, base mem.Addr, corrupt func(img *mem.Physical)) *mem.Physical {
		img := mem.NewPhysical(imgBase, size)
		_, ws, err := nvlog.New(nvlog.Config{Base: base, SizeBytes: nvlog.MetaSize + 16*nvlog.FullEntrySize, Style: nvlog.UndoRedo})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			img.Write(w.Addr, w.Bytes)
		}
		if corrupt != nil {
			corrupt(img)
		}
		return img
	}
	for _, tc := range []struct {
		name  string
		img   func(t *testing.T) *mem.Physical
		bases []mem.Addr
	}{
		{"log_bases below the image", func(t *testing.T) *mem.Physical {
			return logAt(t, 0x1000, 0x1000, nil)
		}, []mem.Addr{0}},
		{"log_bases past the image", func(t *testing.T) *mem.Physical {
			return logAt(t, 0, 0, nil)
		}, []mem.Addr{size}},
		{"forward pointer off the image", func(t *testing.T) *mem.Physical {
			return logAt(t, 0, 0, func(img *mem.Physical) {
				fw := nvlog.ForwardWrite(img, 0, 1<<50)
				img.Write(fw.Addr, fw.Bytes)
			})
		}, []mem.Addr{0}},
		{"capacity beyond the image", func(t *testing.T) *mem.Physical {
			return logAt(t, 0, 0, func(img *mem.Physical) { img.WriteWord(24, 1<<40) })
		}, []mem.Addr{0}},
		{"slot range runs off the end", func(t *testing.T) *mem.Physical {
			return logAt(t, 0, size-4*nvlog.MetaSize, nil)
		}, []mem.Addr{size - 4*nvlog.MetaSize}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.img(t)
			if _, err := nvlog.Walk(img, tc.bases); err == nil {
				t.Error("Walk accepted the hostile log")
			}
			if _, err := recovery.RecoverAll(img.Snapshot(), tc.bases); err == nil {
				t.Error("RecoverAll accepted the hostile log")
			}
			var saved bytes.Buffer
			if _, err := img.WriteTo(&saved); err != nil {
				t.Fatal(err)
			}
			st := flight.ShardState{}
			for _, b := range tc.bases {
				st.LogBases = append(st.LogBases, uint64(b))
			}
			if _, err := st.ReadLog(func(int) (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(saved.Bytes())), nil
			}); err == nil {
				t.Error("ReadLog accepted the hostile log")
			}
		})
	}
}
