package main

import (
	"bytes"
	"io"
	"log"
	"strings"
	"testing"
	"time"

	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/server"
	"pmemlog/internal/txn"
)

// fixtureDoc is a hand-built document exercising every render section.
func fixtureDoc() *pulse.Doc {
	return &pulse.Doc{
		Version: pulse.DocVersion, Addr: "127.0.0.1:7070", Mode: "fwb",
		CapturedAtNS: 61_500_000_000, UptimeNS: 61_500_000_000,
		IntervalNS: int64(time.Second), Seq: 61,
		WindowsAggregated: 5, WindowsRetained: 8,
		Shards: []pulse.ShardDoc{
			{Shard: 1, ThroughputPerSec: 1200, QueueLen: 8, QueueCap: 256, LogOccupancy: 0.42, WrapRatePerSec: 0.7, SavesPerSec: 40},
			{Shard: 0, ThroughputPerSec: 2400, QueueLen: 64, QueueCap: 256, LogOccupancy: 0.81, WrapRatePerSec: 1.9, SavesPerSec: 55},
		},
		Ops: []pulse.OpDoc{
			{Op: "get", Quantiles: pulse.Quantiles{Count: 9000, RatePerSec: 1800, P50NS: 21_000, P95NS: 55_000, P99NS: 120_000, P999NS: 300_000, MaxNS: 410_000}},
			{Op: "put", Quantiles: pulse.Quantiles{Count: 9000, RatePerSec: 1800, P50NS: 380_000, P95NS: 900_000, P99NS: 1_400_000, P999NS: 2_100_000, MaxNS: 2_600_000}},
		},
		Stages: []pulse.StageDoc{
			{Stage: "route", Quantiles: pulse.Quantiles{Count: 18000, P99NS: 9_000}, ShareP99: 0.006},
			{Stage: "queue", Quantiles: pulse.Quantiles{Count: 18000, P99NS: 180_000}, ShareP99: 0.13},
			{Stage: "apply", Quantiles: pulse.Quantiles{Count: 18000, P99NS: 260_000}, ShareP99: 0.19},
			{Stage: "fwb", Quantiles: pulse.Quantiles{Count: 18000, P99NS: 890_000}, ShareP99: 0.64},
			{Stage: "ack", Quantiles: pulse.Quantiles{Count: 18000, P99NS: 45_000}, ShareP99: 0.032},
		},
		Scope: pulse.ScopeDoc{
			WriteAmp: 5.21, PayloadBytesPerSec: 28_800, LogBytesPerSec: 115_200,
			WBBytesPerSec: 34_816, CoalescibleFraction: 0.31,
			Shards: []pulse.ScopeShardDoc{
				{Shard: 0, WriteAmp: 6.4, TxnWriteAmpMean: 4.8, CoalescibleFraction: 0.42,
					WastedForcedFraction: 0.1, LiveRecords: 910, ReplayEstRecords: 910,
					WrapETASeconds: 42.5, FullETASeconds: 130},
				{Shard: 1, WriteAmp: 4.1, TxnWriteAmpMean: 3.9, CoalescibleFraction: 0.2,
					LiveRecords: 340, ReplayEstRecords: 340,
					WrapETASeconds: -1, FullETASeconds: -1},
			},
		},
		E2E: pulse.Quantiles{Count: 18000, RatePerSec: 3600, P50NS: 200_000, P99NS: 1_390_000},
		SLO: pulse.SLODoc{ObjectiveNS: 20_000_000, Budget: 0.001, Total: 18000, Bad: 2, BadFraction: 2.0 / 18000, BurnRate: 0.11},
		Exemplars: []pulse.ExemplarDoc{
			{SpanID: 8589934612, Op: "put", Shard: 0, LatNS: 2_600_000,
				RouteNS: 4_000, QueueNS: 900_000, ApplyNS: 310_000, FwbNS: 1_370_000, AckNS: 16_000},
			{SpanID: 8589934899, Op: "txn", Shard: 1, LatNS: 2_200_000,
				RouteNS: 5_000, QueueNS: 700_000, ApplyNS: 400_000, FwbNS: -1, AckNS: -1},
		},
		History: pulse.HistoryDoc{
			WindowNS:         []int64{1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9},
			ThroughputPerSec: []float64{100, 900, 1800, 2500, 3600, 3400, 3500, 3600},
			WrapRatePerSec:   []float64{0, 0.1, 0.4, 0.9, 1.9, 1.7, 1.8, 1.9},
			P99NS:            []uint64{80_000, 300_000, 700_000, 1_000_000, 1_390_000, 1_300_000, 1_350_000, 1_390_000},
			BurnRate:         []float64{0, 0, 0, 0.05, 0.11, 0.1, 0.11, 0.11},
		},
	}
}

// TestRenderFixture pins the -once frame layout: every section present,
// shards sorted, stage shares and exemplars rendered, byte-identical
// across runs (the render is a pure function of the document).
func TestRenderFixture(t *testing.T) {
	var a, b bytes.Buffer
	render(&a, fixtureDoc(), 80)
	render(&b, fixtureDoc(), 80)
	if a.String() != b.String() {
		t.Fatal("render is not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		"pmserver 127.0.0.1:7070  mode=fwb",
		"SHARDS", "OPS", "STAGES (e2e p99 1390µs", "TREND", "SLO", "SLOWEST",
		"PERSISTENCE  amp 5.21x  payload 28.1KiB/s  log 112.5KiB/s  wb 34.0KiB/s  coalescible 31.0%",
		"  6.40x", "wrap 42s", "wrap -", "coal 42.0%", "live 910",
		"fwb     ", "890µs", "64.0%",
		"8589934612 put shard 0: 2600µs = 4000ns+900µs+310µs+1370µs+16µs",
		"= 5000ns+700µs+400µs+-+-", // missing marks render as "-"
		"▁",                        // sparkline levels present
		"burn 0.11x (ok)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
	// Shards render in ID order even though the document was unordered.
	if s0 := strings.Index(out, "\n    0 "); s0 < 0 || s0 > strings.Index(out, "\n    1 ") {
		t.Fatalf("shards not sorted by ID:\n%s", out)
	}
}

func TestRenderEmptyDoc(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, &pulse.Doc{Version: pulse.DocVersion, Addr: "x", Mode: "fwb"}, 80)
	if !strings.Contains(buf.String(), "no completed telemetry window") {
		t.Fatalf("empty-doc frame: %s", buf.String())
	}
}

// TestOnceAgainstLiveServer is the end-to-end smoke: boot a real
// pmserver, drive spanned traffic, close a pulse window, and run
// pmctl top -once against the live /pulse.json — the frame must show real
// per-shard throughput, the full stage waterfall, and an exemplar.
func TestOnceAgainstLiveServer(t *testing.T) {
	cfg := server.Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(),
		Shards: 2, Mode: txn.FWB, QueueDepth: 128, BatchMax: 8,
		Buckets: 128, NVRAMBytes: 2 << 20, LogBytes: 64 << 10, L2Bytes: 64 << 10,
		HTTPAddr:      "127.0.0.1:0",
		PulseInterval: time.Hour, // the test closes the window itself
		SlowThreshold: time.Nanosecond,
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
	c.EnableSpans()
	for i := 0; i < 48; i++ {
		if err := c.Put([]byte{byte(i), byte(i >> 4)}, []byte("pmtop-smoke")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Pulse().Tick()

	var out, errw bytes.Buffer
	if code := run([]string{"top", "-addr", srv.HTTPAddr(), "-once", "-windows", "1"}, &out, &errw); code != 0 {
		t.Fatalf("pmctl top -once exited %d: %s", code, errw.String())
	}
	frame := out.String()
	for _, want := range []string{"SHARDS", "put", "route", "queue", "apply", "fwb", "ack", "SLOWEST"} {
		if !strings.Contains(frame, want) {
			t.Fatalf("live frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b[") {
		t.Fatal("-once frame contains ANSI control sequences")
	}

	// An unreachable server is an error exit, not a hang or a panic.
	if code := run([]string{"top", "-addr", "127.0.0.1:1", "-once"}, &out, &errw); code != 1 {
		t.Fatalf("unreachable server: exit %d", code)
	}
}
