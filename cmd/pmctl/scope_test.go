package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/server"
	"pmemlog/internal/txn"
)

// TestScopeSmoke is the end-to-end smoke: boot a real server, drive
// traffic, close a pulse window, dump with no scrape before it, and
// assert pmctl scope reports the scope section of the pulse document the
// dump embeds, in text and -json.
func TestScopeSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		Addr: "127.0.0.1:0", Dir: dir,
		Shards: 2, Mode: txn.FWB, QueueDepth: 128, BatchMax: 8,
		Buckets: 128, NVRAMBytes: 2 << 20, LogBytes: 64 << 10, L2Bytes: 64 << 10,
		PulseInterval: time.Hour, // the test closes the window itself
		Logger:        log.New(io.Discard, "", 0),
	}
	srv, err := server.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 10
	for i := 0; i < 64; i++ {
		if err := c.Put([]byte{byte(i), byte(i >> 4)}, bytes.Repeat([]byte{byte(i)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	// No scrape: the dump must carry the closed window itself.
	srv.Pulse().Tick()

	dumpPath := filepath.Join(dir, "flight-dump.json")
	if err := srv.WriteFlightDump(dumpPath, "manual"); err != nil {
		t.Fatal(err)
	}

	d, err := flight.LoadDump(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc pulse.Doc
	if err := json.Unmarshal(d.Pulse, &doc); err != nil {
		t.Fatalf("dump's pulse window: %v (%d bytes)", err, len(d.Pulse))
	}
	if doc.WindowsAggregated != 1 || len(doc.Scope.Shards) != cfg.Shards || doc.Scope.PayloadBytesPerSec <= 0 {
		t.Fatalf("dump's pulse window has no scope accounting: %+v", doc)
	}
	var panel bytes.Buffer
	renderScope(&panel, &doc.Scope, 80)

	var out bytes.Buffer
	if code := run([]string{"scope", dumpPath}, &out, &out); code != 0 {
		t.Fatalf("pmctl scope exited %d:\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{"reason=manual", "live scope (last pulse window", panel.String()} {
		if !strings.Contains(text, want) {
			t.Errorf("pmctl scope output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if code := run([]string{"scope", "-json", dumpPath}, &out, &out); code != 0 {
		t.Fatalf("pmctl scope -json exited %d:\n%s", code, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output unparsable: %v\n%s", err, out.String())
	}
	if rep.Live == nil || !reflect.DeepEqual(*rep.Live, doc.Scope) {
		t.Fatalf("-json live scope %+v, the dump's window says %+v", rep.Live, doc.Scope)
	}
}

// TestScopeParentFormatDump reads a dump written before dumps carried a
// pulse window: the report says so and the command still succeeds.
func TestScopeParentFormatDump(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"scope", "testdata/parent-dump.json"}, &out, &out); code != 0 {
		t.Fatalf("pmctl scope exited %d:\n%s", code, out.String())
	}
	if text := out.String(); !strings.Contains(text, "the dump has no pulse window") {
		t.Fatalf("pmctl scope output does not say the window is missing:\n%s", text)
	}
}

// TestResidencyScan prices a hand-built log image: known records, known
// byte split, one committed and one torn transaction, and a repeated
// (txn, line) store the analyzer must count as coalescible.
func TestResidencyScan(t *testing.T) {
	const (
		logBase = mem.Addr(4096)
		lineA   = mem.Addr(64 << 10)
		lineB   = mem.Addr(65 << 10)
	)
	dir := t.TempDir()

	img := mem.NewPhysical(0, 256<<10)
	l, writes, err := nvlog.New(nvlog.Config{
		Base: logBase, SizeBytes: 16 << 10, Style: nvlog.UndoRedo,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Txn 7: header, three updates (two on lineA — one coalescible),
	// commit. Txn 9: a single torn update.
	recs := []nvlog.Entry{
		{Kind: nvlog.KindHeader, TxID: 7},
		{Kind: nvlog.KindUpdate, TxID: 7, Addr: lineA, Undo: 1, Redo: 2},
		{Kind: nvlog.KindUpdate, TxID: 7, Addr: lineA + 8, Undo: 3, Redo: 4},
		{Kind: nvlog.KindUpdate, TxID: 7, Addr: lineB, Undo: 5, Redo: 6},
		{Kind: nvlog.KindCommit, TxID: 7},
		{Kind: nvlog.KindUpdate, TxID: 9, Addr: lineB, Undo: 7, Redo: 8},
	}
	// PrepareAppend's writes alias the log's scratch buffers, so each
	// batch must land in the image before the next append.
	for _, w := range writes {
		img.Write(w.Addr, w.Bytes)
	}
	for _, e := range recs {
		ws, err := l.PrepareAppend(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			img.Write(w.Addr, w.Bytes)
		}
	}
	imgPath := filepath.Join(dir, "shard-000.img")
	if err := img.WriteFile(imgPath); err != nil {
		t.Fatal(err)
	}

	d := &flight.Dump{
		Reason: "test",
		Shards: 1,
		ShardStates: []flight.ShardState{{
			Shard: 0, LogBases: []uint64{uint64(logBase)}, ImagePath: imgPath,
			LogTail: 6, LogCap: 512,
		}},
	}
	live := pulse.ScopeDoc{WriteAmp: 6.35, Shards: []pulse.ScopeShardDoc{{Shard: 0, CoalescibleFraction: 0.25}}}
	if d.Pulse, err = json.Marshal(pulse.Doc{Version: pulse.DocVersion, WindowsAggregated: 1, Scope: live}); err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(dir, "flight-dump.json")
	if err := flight.WriteDump(dumpPath, d); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := run([]string{"scope", "-json", dumpPath}, &out, &out); code != 0 {
		t.Fatalf("pmctl scope exited %d:\n%s", code, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output unparsable: %v\n%s", err, out.String())
	}

	if rep.Live == nil || !reflect.DeepEqual(*rep.Live, live) {
		t.Fatalf("live scope: %+v, want %+v", rep.Live, live)
	}

	if len(rep.Residency) != 1 {
		t.Fatalf("residency: %+v (errors %v)", rep.Residency, rep.ImageErrors)
	}
	sr := rep.Residency[0]
	if sr.LiveRecords != 6 || sr.UpdateRecords != 4 || sr.HeaderRecords != 1 || sr.CommitRecords != 1 {
		t.Fatalf("record counts: %+v", sr)
	}
	if sr.CommittedTxns != 1 || sr.TornTxns != 1 {
		t.Fatalf("txn residency: %+v", sr)
	}
	// 6 records × 32-byte slots, updates carrying 8+8+2 value/checksum
	// bytes each, everything else framing.
	if sr.LiveBytes != 6*nvlog.FullEntrySize {
		t.Fatalf("live bytes: %d", sr.LiveBytes)
	}
	if sr.UndoBytes != 32 || sr.RedoBytes != 32 || sr.ChecksumBytes != 12 {
		t.Fatalf("byte split: %+v", sr)
	}
	if sum := sr.UndoBytes + sr.RedoBytes + sr.HeaderBytes + sr.ChecksumBytes; sum != sr.LiveBytes {
		t.Fatalf("byte split does not sum: %d != %d", sum, sr.LiveBytes)
	}
	// Two of the four updates hit lineA within txn 7; the second is the
	// coalescible one (lineA and lineA+8 share a cache line).
	if sr.CoalescibleFraction != 0.25 {
		t.Fatalf("coalescible: %v", sr.CoalescibleFraction)
	}
	// Log amp: 192 live bytes over 4 words of payload.
	if sr.LogWriteAmp != 6 {
		t.Fatalf("log write amp: %v", sr.LogWriteAmp)
	}
	if sr.ReplayEstRecords != 6 || sr.ReplayEstBytes != 6*nvlog.FullEntrySize+4*mem.WordSize {
		t.Fatalf("replay bill: %+v", sr)
	}
}

// TestScopeUsage covers the argument edge cases without a server.
func TestScopeUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"scope"}, &out, &out); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"scope", "does-not-exist.json"}, &out, &out); code != 2 {
		t.Fatalf("missing dump: exit %d, want 2", code)
	}
}
