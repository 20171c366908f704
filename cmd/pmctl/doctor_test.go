package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/server"
	"pmemlog/internal/txn"
)

// TestDoctorSmoke is the end-to-end smoke `make doctor` runs in CI:
// boot a real server, push spanned traffic through it, capture a
// flight dump mid-flight, and assert pmctl doctor renders each span's
// stage marks and the machine timeline its tag selects.
func TestDoctorSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		Addr:       "127.0.0.1:0",
		Dir:        dir,
		Shards:     2,
		Mode:       txn.FWB,
		QueueDepth: 128,
		BatchMax:   8,
		Buckets:    128,
		NVRAMBytes: 2 << 20,
		LogBytes:   64 << 10,
		L2Bytes:    64 << 10,
		Logger:     log.New(io.Discard, "", 0),
		// Tail-sample everything so finished requests keep their spans.
		SlowThreshold: time.Nanosecond,
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
	c.EnableSpans()
	for i := 0; i < 32; i++ {
		key := []byte{'k', byte('0' + i%10), byte('0' + i/10)}
		if err := c.Put(key, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}

	dumpPath := filepath.Join(dir, "flight-dump.json")
	if err := srv.WriteFlightDump(dumpPath, "manual"); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := run([]string{"doctor", dumpPath}, &out, &out); code != 0 {
		t.Fatalf("pmctl doctor exited %d:\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"flight dump v1",
		"reason=manual",
		"trace rings:",
		"shards:",
		"slow requests (tail samples):",
		"stages: recv=",
		"machine timeline (cycles):",
		"tx-begin",
		"log-append",
		"tx-commit",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("pmctl doctor output missing %q:\n%s", want, text)
		}
	}

	// -json must emit one parseable document holding the dump.
	out.Reset()
	if code := run([]string{"doctor", "-json", "-dump", dumpPath}, &out, &out); code != 0 {
		t.Fatalf("pmctl doctor -json exited %d:\n%s", code, out.String())
	}
	var doc struct {
		Dump struct {
			Version int    `json:"version"`
			Reason  string `json:"reason"`
		} `json:"dump"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("pmctl doctor -json output unparsable: %v", err)
	}
	if doc.Dump.Version != 1 || doc.Dump.Reason != "manual" {
		t.Fatalf("pmctl doctor -json dump = %+v", doc.Dump)
	}
}

// TestDoctorParentFormatDump renders a committed dump from before the
// server's request tracer was removed: its srv-* events (nanosecond
// timestamps, on "shard 0" / "network" rings) sit beside the machine
// rings, and the doctor still loads and prints all of it.
func TestDoctorParentFormatDump(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"doctor", "-no-images", "testdata/parent-dump.json"}, &out, &out); code != 0 {
		t.Fatalf("pmctl doctor exited %d:\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"flight dump v1",
		"span 4294967296",
		"stages: recv=",
		"network",
		"srv-recv",
		"srv-ack",
		"shard 0/thread 0",
		"tx-begin",
		"log-append",
		"tx-commit",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("pmctl doctor output missing %q:\n%s", want, text)
		}
	}
}

// TestDoctorUsage covers the argument edge cases without a server.
func TestDoctorUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"doctor"}, &out, &out); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"doctor", "does-not-exist.json"}, &out, &out); code != 2 {
		t.Fatalf("missing dump: exit %d, want 2", code)
	}
}

// TestStrictVerdictExitCodes pins pmctl doctor's -strict contract per
// verdict class against hand-built images and dumps: crash artifacts
// that recovery handles correctly (torn-but-rolled-back, unlogged,
// acked-but-truncated) exit 0; a broken durability promise (an acked
// write whose transaction recovery undid) exits 1. A verdict/replay
// disagreement also exits 1, but cannot be synthesized from a
// consistent image — the flight scan and the recovery replay read the
// same records — which is exactly why it is strict-fatal when it does
// appear: it means the evidence itself is corrupt.
func TestStrictVerdictExitCodes(t *testing.T) {
	const (
		logBase  = mem.Addr(4096)
		dataAddr = mem.Addr(64 << 10)
		opPut    = 0x02
	)

	type record struct {
		kind uint8
		txid uint16
	}
	cases := []struct {
		name     string
		records  []record
		acked    bool // StatusOK in the slow ring vs still in flight
		wantExit int
		wantOut  string
	}{
		{
			name:     "committed-acked",
			records:  []record{{nvlog.KindUpdate, 7}, {nvlog.KindCommit, 7}},
			acked:    true,
			wantExit: 0,
			wantOut:  "committed",
		},
		{
			name:     "torn-in-flight-rolled-back",
			records:  []record{{nvlog.KindUpdate, 7}},
			acked:    false,
			wantExit: 0,
			wantOut:  "torn",
		},
		{
			name:     "unlogged-in-flight",
			records:  nil,
			acked:    false,
			wantExit: 0,
			wantOut:  "unlogged",
		},
		{
			name:     "acked-write-lost",
			records:  []record{{nvlog.KindUpdate, 7}},
			acked:    true,
			wantExit: 1,
			wantOut:  "ACKED WRITE LOST",
		},
		{
			name:     "acked-truncated",
			records:  nil,
			acked:    true,
			wantExit: 0,
			wantOut:  "unlogged",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			img := mem.NewPhysical(0, 256<<10)
			l, writes, err := nvlog.New(nvlog.Config{
				Base: logBase, SizeBytes: 16 << 10, Style: nvlog.UndoRedo,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.records {
				ws, err := l.PrepareAppend(nvlog.Entry{
					Kind: rec.kind, TxID: rec.txid,
					Addr: dataAddr, Undo: 1, Redo: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				writes = append(writes, ws...)
			}
			for _, w := range writes {
				img.Write(w.Addr, w.Bytes)
			}
			imgPath := filepath.Join(dir, "shard-000.img")
			if err := img.WriteFile(imgPath); err != nil {
				t.Fatal(err)
			}

			span := flight.SpanSnapshot{
				ID: 1, Op: opPut, Shard: 0, TxID: 7, Status: -1,
			}
			d := &flight.Dump{
				Reason: "test",
				Shards: 1,
				ShardStates: []flight.ShardState{{
					Shard: 0, LogBases: []uint64{uint64(logBase)}, ImagePath: imgPath,
				}},
			}
			if tc.acked {
				span.Status = 0 // StatusOK: the durability promise went out
				d.Slow = []flight.SpanSnapshot{span}
			} else {
				d.InFlight = []flight.SpanSnapshot{span}
			}
			dumpPath := filepath.Join(dir, "flight-dump.json")
			if err := flight.WriteDump(dumpPath, d); err != nil {
				t.Fatal(err)
			}

			var out bytes.Buffer
			code := run([]string{"doctor", "-strict", dumpPath}, &out, &out)
			if code != tc.wantExit {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.wantExit, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Fatalf("output missing %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}
