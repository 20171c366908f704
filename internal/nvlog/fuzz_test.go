package nvlog

import (
	"testing"

	"pmemlog/internal/mem"
)

// FuzzDecode: arbitrary bytes must never panic and never decode into an
// out-of-range kind.
func FuzzDecode(f *testing.F) {
	f.Add(make([]byte, FullEntrySize))
	f.Add(Encode(Entry{Kind: KindUpdate, TxID: 7, Addr: 0x1234, Undo: 1, Redo: 2}, UndoRedo, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, style := range []Style{UndoRedo, UndoOnly, RedoOnly} {
			e, _, ok := Decode(data, style)
			if ok && (e.Kind < KindHeader || e.Kind > KindCommit) {
				t.Fatalf("decoded invalid kind %d", e.Kind)
			}
		}
	})
}

// FuzzScan: a log region filled with arbitrary bytes must never panic the
// recovery scan — it may legitimately error or return few records, but
// never read outside the region or loop forever.
func FuzzScan(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{})
	f.Add(uint64(2), uint64(5), []byte{0x5F, 0xB0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, head, tail uint64, garbage []byte) {
		img := mem.NewPhysical(0, 64<<10)
		// Write garbage into the record area.
		for i, b := range garbage {
			if i >= 32<<10 {
				break
			}
			img.Write(mem.Addr(MetaSize+i), []byte{b})
		}
		meta := Meta{
			Head:     head % 2048,
			Tail:     tail % 2048,
			Capacity: 512,
			Style:    UndoRedo,
		}
		if meta.Tail < meta.Head {
			meta.Head, meta.Tail = meta.Tail, meta.Head
		}
		if meta.Tail-meta.Head > meta.Capacity {
			meta.Tail = meta.Head + meta.Capacity
		}
		entries, trueTail, err := Scan(img, 0, meta)
		if err != nil {
			return // rejecting corrupt logs is correct behaviour
		}
		// The scan stops at the first hole, which may be before the
		// persisted tail; the discovered tail stays within one pass.
		if trueTail < meta.Head || trueTail > meta.Head+meta.Capacity {
			t.Fatalf("true tail %d outside [%d, %d]", trueTail, meta.Head, meta.Head+meta.Capacity)
		}
		if uint64(len(entries)) != trueTail-meta.Head {
			t.Fatalf("entry count %d != window %d", len(entries), trueTail-meta.Head)
		}
	})
}

// FuzzWalk: arbitrary metadata blocks and record bytes, walked from the
// image's own base and from an arbitrary one, must never panic; what the
// walk accepts lies wholly inside the image, and a machine booting from it
// (Open over the region's own config, as a reboot does, then one append)
// writes only inside the region.
func FuzzWalk(f *testing.F) {
	const base = mem.Addr(0x1000)
	l, ws, err := New(Config{Base: base, SizeBytes: MetaSize + 16*FullEntrySize, Style: UndoRedo})
	if err != nil {
		f.Fatal(err)
	}
	meta := ws[0].Bytes
	rec, err := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: 3, Addr: 0x8000, Undo: 1, Redo: 2})
	if err != nil {
		f.Fatal(err)
	}
	forward := append([]byte(nil), meta...)
	putWord(forward[40:48], mem.Word(1<<50))
	f.Add(meta, rec[0].Bytes, uint64(base))
	f.Add(forward, []byte{}, uint64(0))
	f.Add(meta, []byte{0x5F, 0xB0}, uint64(1<<63))
	f.Fuzz(func(t *testing.T, metaBlock, slots []byte, extra uint64) {
		img := mem.NewPhysical(base, 64<<10)
		img.Write(base, metaBlock[:min(len(metaBlock), MetaSize)])
		img.Write(base+MetaSize, slots[:min(len(slots), int(img.Size())-MetaSize)])
		regions, err := Walk(img, []mem.Addr{base, mem.Addr(extra)})
		if err != nil {
			return // rejecting hostile metadata is correct behaviour
		}
		for _, r := range regions {
			if !img.Contains(r.Base, MetaSize+int(r.Meta.Capacity*r.Meta.SlotSize())) {
				t.Fatalf("walk accepted region %v with %d slots outside the image", r.Base, r.Meta.Capacity)
			}
			if uint64(len(r.Entries)) != r.TrueTail-r.Meta.Head {
				t.Fatalf("entry count %d != window %d", len(r.Entries), r.TrueTail-r.Meta.Head)
			}
			cfg := r.Config()
			l, err := Open(img, cfg)
			if err != nil {
				continue // a region no boot would open
			}
			ws, err := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: 9, Addr: 0x8000, Undo: 3, Redo: 4})
			if err != nil {
				continue // full: the engine truncates or grows first
			}
			for _, w := range ws {
				if w.Addr < cfg.Base || uint64(w.Addr-cfg.Base)+uint64(len(w.Bytes)) > cfg.SizeBytes {
					t.Fatalf("append wrote %d bytes at %v outside region %v+%d", len(w.Bytes), w.Addr, cfg.Base, cfg.SizeBytes)
				}
			}
		}
	})
}
