package flight

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
)

// fuzzImage is the fixed shard image FuzzParseDump analyzes against: one
// log at the server's first log base holding a committed transaction 1
// and a torn transaction 2.
func fuzzImage(f *testing.F) []byte {
	const base = mem.Addr(1 << 32)
	img := mem.NewPhysical(base, 64<<10)
	write := func(ws []nvlog.Write, err error) {
		if err != nil {
			f.Fatal(err)
		}
		for _, w := range ws {
			img.Write(w.Addr, w.Bytes)
		}
	}
	l, ws, err := nvlog.New(nvlog.Config{Base: base, SizeBytes: nvlog.MetaSize + 16*nvlog.FullEntrySize, Style: nvlog.UndoRedo})
	write(ws, err)
	write(l.PrepareAppend(nvlog.Entry{Kind: nvlog.KindUpdate, TxID: 1, Addr: base + 0x8000, Undo: 1, Redo: 2}))
	write(l.PrepareAppend(nvlog.Entry{Kind: nvlog.KindCommit, TxID: 1}))
	write(l.PrepareAppend(nvlog.Entry{Kind: nvlog.KindUpdate, TxID: 2, Addr: base + 0x8008, Undo: 3, Redo: 4}))
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseDump: a flight dump is read from wherever it was copied to, so
// whatever its bytes, parse → Timeline → Analyze against a fixed image
// must not panic, and must not allocate in proportion to a number the
// dump holds rather than to its length. Shard 0 opens the image; every
// other shard has none, as when a dump travels without its images.
func FuzzParseDump(f *testing.F) {
	image := fuzzImage(f)
	open := func(shard int) (io.ReadCloser, error) {
		if shard != 0 {
			return nil, errors.New("no image")
		}
		return io.NopCloser(bytes.NewReader(image)), nil
	}
	f.Add([]byte(`{"version":1,"shard_states":[{"shard":0,"log_bases":[0]}],"in_flight":[{"id":1,"op":2,"shard":0,"txid":1,"status":-1}]}`))
	f.Add([]byte(`{"version":1,"shard_states":[{"shard":0,"log_cap":18446744073709551615,"log_bases":[4294967296,4294967296]}],"slow":[{"id":9,"op":4,"shard":0,"txid":2,"status":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := parseDump(data)
		if err != nil {
			return
		}
		for _, sp := range d.InFlight {
			d.Timeline(sp.ID)
		}
		_, _ = Analyze(d, open) // rejecting a hostile dump is correct behaviour
		runtime.ReadMemStats(&after)
		// One image load and its recovery pass, plus a bounded multiple of
		// the input for decoding and for the records each log base walks.
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(data)); n > limit {
			t.Fatalf("%d-byte dump allocated %d bytes (limit %d)", len(data), n, limit)
		}
	})
}
