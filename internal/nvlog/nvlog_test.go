package nvlog

import (
	"testing"
	"testing/quick"

	"pmemlog/internal/mem"
)

func testCfg(style Style, entries uint64) Config {
	return Config{Base: 0x10000, SizeBytes: MetaSize + entries*style.EntrySize(), Style: style}
}

// apply performs the functional writes against an image (standing in for
// the memory controller's tracked path).
func apply(img *mem.Physical, writes []Write) {
	for _, w := range writes {
		img.Write(w.Addr, w.Bytes)
	}
}

func newImg() *mem.Physical { return mem.NewPhysical(0, 1<<21) }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := Entry{Kind: KindUpdate, TxID: 0xbeef, ThreadID: 7, Addr: 0x123456789abc, Undo: 111, Redo: 222}
	for _, style := range []Style{UndoRedo, UndoOnly, RedoOnly} {
		buf := Encode(e, style, 3)
		if uint64(len(buf)) != style.EntrySize() {
			t.Fatalf("style %v: size %d", style, len(buf))
		}
		got, pass, ok := Decode(buf, style)
		if !ok || pass != 3 {
			t.Fatalf("style %v: decode ok=%v pass=%v", style, ok, pass)
		}
		if got.Kind != e.Kind || got.TxID != e.TxID || got.ThreadID != e.ThreadID || got.Addr != e.Addr {
			t.Fatalf("style %v: header mismatch: %+v", style, got)
		}
		switch style {
		case UndoRedo:
			if got.Undo != 111 || got.Redo != 222 {
				t.Fatalf("undo+redo values: %+v", got)
			}
		case UndoOnly:
			if got.Undo != 111 {
				t.Fatalf("undo value: %+v", got)
			}
		case RedoOnly:
			if got.Redo != 222 {
				t.Fatalf("redo value: %+v", got)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, ok := Decode(make([]byte, FullEntrySize), UndoRedo); ok {
		t.Error("zeroed record decoded")
	}
	buf := Encode(Entry{Kind: KindUpdate}, UndoRedo, 0)
	buf[4] = 0 // break magic
	if _, _, ok := Decode(buf, UndoRedo); ok {
		t.Error("bad-magic record decoded")
	}
	buf2 := Encode(Entry{Kind: KindUpdate}, UndoRedo, 0)
	buf2[0] = 0xff // invalid kind
	if _, _, ok := Decode(buf2, UndoRedo); ok {
		t.Error("bad-kind record decoded")
	}
	if _, _, ok := Decode([]byte{1, 2}, UndoRedo); ok {
		t.Error("short record decoded")
	}
}

// Property: encode/decode round-trips for arbitrary field values.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(kind uint8, txid uint16, tid uint8, addr uint64, undo, redo uint64, pass uint8) bool {
		e := Entry{
			Kind:     kind%3 + 1,
			TxID:     txid,
			ThreadID: tid,
			Addr:     mem.Addr(addr) % mem.MaxAddr,
			Undo:     mem.Word(undo),
			Redo:     mem.Word(redo),
		}
		buf := Encode(e, UndoRedo, uint64(pass))
		got, gotPass, ok := Decode(buf, UndoRedo)
		return ok && gotPass == pass && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendTruncateCircular(t *testing.T) {
	img := newImg()
	l, init, err := New(testCfg(UndoRedo, 8))
	if err != nil {
		t.Fatal(err)
	}
	apply(img, init)
	if l.Capacity() != 8 || l.Len() != 0 || l.Full() {
		t.Fatalf("fresh log: cap=%d len=%d", l.Capacity(), l.Len())
	}
	for i := 0; i < 8; i++ {
		ws, err := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: uint16(i)})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		apply(img, ws)
	}
	if !l.Full() {
		t.Fatal("log should be full")
	}
	if _, err := l.PrepareAppend(Entry{Kind: KindUpdate}); err != ErrFull {
		t.Fatalf("append to full log: %v, want ErrFull", err)
	}
	// Consume 3, append 3 more (wrapping).
	ws, err := l.Truncate(3)
	if err != nil {
		t.Fatal(err)
	}
	apply(img, ws)
	if l.Len() != 5 {
		t.Fatalf("len after truncate = %d", l.Len())
	}
	for i := 8; i < 11; i++ {
		ws, err := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: uint16(i)})
		if err != nil {
			t.Fatalf("wrap append %d: %v", i, err)
		}
		apply(img, ws)
	}
	// Slot of seq 8 must reuse slot of seq 0.
	if l.SlotAddr(8) != l.SlotAddr(0) {
		t.Error("wrap-around slot mismatch")
	}
	if _, err := l.Truncate(100); err == nil {
		t.Error("over-truncate accepted")
	}
}

func TestTornBitFlipsPerPass(t *testing.T) {
	l, _, err := New(testCfg(UndoRedo, 4))
	if err != nil {
		t.Fatal(err)
	}
	img := newImg()
	// Pass 0: stamp 0.
	for i := 0; i < 4; i++ {
		ws, _ := l.PrepareAppend(Entry{Kind: KindUpdate})
		apply(img, ws)
		_, pass, _ := Decode(img.Read(l.SlotAddr(uint64(i)), FullEntrySize), UndoRedo)
		if pass != 0 {
			t.Fatalf("pass 0 entry %d has stamp %d", i, pass)
		}
	}
	ws, _ := l.Truncate(4)
	apply(img, ws)
	// Pass 1: stamp 1 (torn bit set).
	ws2, _ := l.PrepareAppend(Entry{Kind: KindUpdate})
	apply(img, ws2)
	raw := img.Read(l.SlotAddr(4), FullEntrySize)
	_, pass, _ := Decode(raw, UndoRedo)
	if pass != 1 || raw[0]&1 != 1 {
		t.Fatalf("pass 1 entry has stamp %d torn %d", pass, raw[0]&1)
	}
}

func TestMetaPeriodicSync(t *testing.T) {
	cfg := testCfg(UndoRedo, 16)
	cfg.MetaEvery = 4
	l, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	syncs := l.Stats().MetaSyncs
	var metaWrites int
	for i := 0; i < 8; i++ {
		ws, _ := l.PrepareAppend(Entry{Kind: KindUpdate})
		for _, w := range ws {
			if w.Addr == cfg.Base {
				metaWrites++
			}
		}
	}
	if metaWrites != 2 {
		t.Errorf("meta writes in 8 appends with MetaEvery=4: %d, want 2", metaWrites)
	}
	if l.Stats().MetaSyncs != syncs+2 {
		t.Errorf("MetaSyncs stat = %d", l.Stats().MetaSyncs)
	}
}

func TestScanRecoversAllEntries(t *testing.T) {
	img := newImg()
	cfg := testCfg(UndoRedo, 16)
	cfg.MetaEvery = 1 << 30 // never sync tail: force torn-bit scanning
	l, init, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apply(img, init)
	for i := 0; i < 10; i++ {
		ws, _ := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: uint16(i), Addr: mem.Addr(i * 8)})
		apply(img, ws)
	}
	meta, err := ReadMeta(img, cfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tail != 0 {
		t.Fatalf("persisted tail = %d, want 0 (no sync)", meta.Tail)
	}
	entries, trueTail, err := Scan(img, cfg.Base, meta)
	if err != nil {
		t.Fatal(err)
	}
	if trueTail != 10 || len(entries) != 10 {
		t.Fatalf("scan found %d entries, true tail %d; want 10/10", len(entries), trueTail)
	}
	for i, e := range entries {
		if e.TxID != uint16(i) {
			t.Fatalf("entry %d: txid %d", i, e.TxID)
		}
	}
}

func TestScanStopsAtStaleParityAfterWrap(t *testing.T) {
	img := newImg()
	cfg := testCfg(UndoRedo, 4)
	cfg.MetaEvery = 1 << 30
	l, init, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apply(img, init)
	// Fill pass 0 fully, truncate, then write 2 entries of pass 1.
	for i := 0; i < 4; i++ {
		ws, _ := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: 100 + uint16(i)})
		apply(img, ws)
	}
	ws, _ := l.Truncate(4)
	apply(img, ws)
	for i := 0; i < 2; i++ {
		ws, _ := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: 200 + uint16(i)})
		apply(img, ws)
	}
	meta, _ := ReadMeta(img, cfg.Base)
	// Persisted head=4 (truncate synced), tail=4; scan must find exactly
	// the two pass-1 entries and stop at the stale pass-0 records.
	entries, trueTail, err := Scan(img, cfg.Base, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || trueTail != 6 {
		t.Fatalf("scan: %d entries, tail %d; want 2/6", len(entries), trueTail)
	}
	if entries[0].TxID != 200 || entries[1].TxID != 201 {
		t.Fatalf("scan recovered wrong entries: %+v", entries)
	}
}

func TestGrowMigratesLiveRecords(t *testing.T) {
	img := newImg()
	cfg := testCfg(UndoRedo, 4)
	l, init, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apply(img, init)
	for i := 0; i < 4; i++ {
		ws, _ := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: uint16(i)})
		apply(img, ws)
	}
	if !l.Full() {
		t.Fatal("log should be full before grow")
	}
	newCfg := Config{Base: 0x40000, SizeBytes: MetaSize + 16*FullEntrySize, Style: UndoRedo}
	ws, err := l.Grow(img, newCfg)
	if err != nil {
		t.Fatal(err)
	}
	apply(img, ws)
	if l.Full() || l.Len() != 4 || l.Capacity() != 16 {
		t.Fatalf("after grow: len=%d cap=%d full=%v", l.Len(), l.Capacity(), l.Full())
	}
	// All four live records must be recoverable from the new region.
	meta, err := ReadMeta(img, newCfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := Scan(img, newCfg.Base, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("post-grow scan found %d entries", len(entries))
	}
	for i, e := range entries {
		if e.TxID != uint16(i) {
			t.Fatalf("post-grow entry %d: txid %d", i, e.TxID)
		}
	}
	// Growing to a smaller capacity or different style is rejected.
	if _, err := l.Grow(img, testCfg(UndoRedo, 8)); err == nil {
		t.Error("shrinking grow accepted")
	}
	bad := Config{Base: 0x80000, SizeBytes: MetaSize + 64*CompactEntrySize, Style: RedoOnly}
	if _, err := l.Grow(img, bad); err == nil {
		t.Error("style-changing grow accepted")
	}
}

// Property: the log behaves as a FIFO queue — any interleaving of appends
// and truncates preserves order and count.
func TestQuickFIFOSemantics(t *testing.T) {
	f := func(ops []bool) bool {
		img := newImg()
		cfg := testCfg(UndoRedo, 8)
		l, init, err := New(cfg)
		if err != nil {
			return false
		}
		apply(img, init)
		var model []uint16 // shadow queue
		next := uint16(0)
		for _, isAppend := range ops {
			if isAppend && !l.Full() {
				ws, err := l.PrepareAppend(Entry{Kind: KindUpdate, TxID: next})
				if err != nil {
					return false
				}
				apply(img, ws)
				model = append(model, next)
				next++
			} else if !isAppend && l.Len() > 0 {
				ws, err := l.Truncate(1)
				if err != nil {
					return false
				}
				apply(img, ws)
				model = model[1:]
			}
		}
		if uint64(len(model)) != l.Len() {
			return false
		}
		meta, err := ReadMeta(img, cfg.Base)
		if err != nil {
			return false
		}
		entries, _, err := Scan(img, cfg.Base, meta)
		if err != nil {
			return false
		}
		// The durable head is persisted lazily, so the scan may include a
		// prefix of already-truncated records; the live records must form
		// the scan's suffix, in order.
		if len(entries) < len(model) {
			return false
		}
		off := len(entries) - len(model)
		for i, want := range model {
			if entries[off+i].TxID != want {
				return false
			}
		}
		// The extra prefix (already-truncated records not yet reflected in
		// the lazily-persisted head) must itself be consecutive TxIDs
		// immediately preceding the live records.
		if off > 0 && len(model) > 0 {
			for i := 0; i < off; i++ {
				if entries[i].TxID != model[0]-uint16(off-i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOpenReadsTheDurablePointers: Open continues a log at the pointers
// its metadata holds and refuses metadata that does not describe the
// configured region or whose pointers no log could have written.
func TestOpenReadsTheDurablePointers(t *testing.T) {
	cfg := testCfg(UndoRedo, 8)
	img := mem.NewPhysical(0, 1<<20)
	l, init, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apply(img, init)
	for i := 0; i < 11; i++ { // wraps: the reopened log must keep pass parity
		if l.Len() == l.Capacity() {
			apply(img, must(l.Truncate(4)))
		}
		apply(img, must(l.PrepareAppend(Entry{Kind: KindUpdate, TxID: uint16(i), Addr: 0x40})))
	}
	apply(img, []Write{l.metaWrite()})
	r, err := Open(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head() != l.Head() || r.Tail() != l.Tail() {
		t.Fatalf("opened at head=%d tail=%d, want %d/%d", r.Head(), r.Tail(), l.Head(), l.Tail())
	}

	for name, bad := range map[string]Config{
		"capacity":     testCfg(UndoRedo, 16),
		"line-aligned": {Base: cfg.Base, SizeBytes: MetaSize + 8*mem.LineSize, Style: UndoRedo, LineAligned: true},
		"style":        testCfg(RedoOnly, 8),
	} {
		if _, err := Open(img, bad); err == nil {
			t.Errorf("%s mismatch: Open accepted the image", name)
		}
	}
	img.WriteWord(cfg.Base+8, mem.Word(l.Tail()+1)) // head past tail
	if _, err := Open(img, cfg); err == nil {
		t.Error("Open accepted head > tail")
	}
}

func must(ws []Write, err error) []Write {
	if err != nil {
		panic(err)
	}
	return ws
}
