package flight

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pmemlog/internal/obs"
)

func TestSpanTagNonZeroForMintedSpans(t *testing.T) {
	// Client spans are connID<<32|seq with connID >= 1; the fold must
	// stay nonzero for them (0 is the "untraced" sentinel) except in the
	// connID==seq collision, which real mints hit only when a connection
	// somehow issues a seq equal to its own ID — tolerated, not fatal.
	if SpanTag(0) != 0 {
		t.Fatal("SpanTag(0) must be 0")
	}
	if SpanTag(1<<32|7) == 0 {
		t.Fatal("minted span folded to 0")
	}
	if SpanTag(1<<32|7) == SpanTag(2<<32|7) {
		t.Fatal("fold lost the connection half")
	}
}

func TestTableLifecycle(t *testing.T) {
	tb := NewTable(2, 4, 1000)
	sp := tb.Acquire(1<<32|5, 0x02, 100)
	if sp == nil {
		t.Fatal("Acquire failed on empty table")
	}
	sp.SetShard(3)
	sp.Mark(StageEnqueue, 110)
	sp.Mark(StageApply, 120)
	sp.SetTxn(77, 1000, 2000)
	sp.SetLogWindow(10, 13)

	if got := tb.InFlightCount(); got != 1 {
		t.Fatalf("InFlightCount = %d, want 1", got)
	}
	inflight := tb.InFlight()
	if len(inflight) != 1 {
		t.Fatalf("InFlight returned %d spans, want 1", len(inflight))
	}
	s := inflight[0]
	if s.ID != 1<<32|5 || s.Shard != 3 || s.TxID != 77 ||
		s.RecvNS != 100 || s.EnqueueNS != 110 || s.ApplyNS != 120 ||
		s.TxBeginCyc != 1000 || s.TxCommitCyc != 2000 ||
		s.LogFirst != 10 || s.LogLast != 13 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if s.Status != -1 || s.AckNS != 0 {
		t.Fatalf("unanswered span has status %d ack %d", s.Status, s.AckNS)
	}

	// Finish above the threshold (recv 100 → ack 2100 ≥ 1000ns): the
	// snapshot lands in the slow ring and the slot recycles.
	tb.Finish(sp, 0x00, 2100)
	if got := tb.InFlightCount(); got != 0 {
		t.Fatalf("InFlightCount after Finish = %d, want 0", got)
	}
	slow := tb.Slow()
	if len(slow) != 1 || slow[0].Status != 0 || slow[0].AckNS != 2100 {
		t.Fatalf("slow capture: %+v", slow)
	}

	// A fast request (latency < threshold) is not captured.
	sp = tb.Acquire(1<<32|6, 0x01, 5000)
	tb.Finish(sp, 0x00, 5100)
	if got := tb.SlowCaptured(); got != 1 {
		t.Fatalf("SlowCaptured = %d, want 1", got)
	}
}

func TestTableFullSheds(t *testing.T) {
	tb := NewTable(1, 0, 0)
	a := tb.Acquire(1<<32|1, 0x01, 1)
	if a == nil {
		t.Fatal("first Acquire failed")
	}
	if b := tb.Acquire(1<<32|2, 0x01, 2); b != nil {
		t.Fatal("Acquire succeeded on a full table")
	}
	if tb.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", tb.Drops())
	}
	tb.Finish(a, 0, 3)
	if c := tb.Acquire(1<<32|3, 0x01, 4); c == nil {
		t.Fatal("Acquire failed after slot recycled")
	}
}

func TestTableHotPathZeroAlloc(t *testing.T) {
	tb := NewTable(8, 4, 1<<40) // threshold unreachably high: slow path off
	if n := testing.AllocsPerRun(1000, func() {
		sp := tb.Acquire(1<<32|9, 0x02, 100)
		sp.SetShard(0)
		sp.Mark(StageEnqueue, 110)
		sp.Mark(StageApply, 120)
		sp.SetTxn(7, 1, 2)
		sp.SetLogWindow(3, 4)
		tb.Finish(sp, 0, 130)
	}); n != 0 {
		t.Fatalf("span lifecycle allocates %v bytes/op, want 0", n)
	}
	// The slow-capture path must not allocate either: it copies into the
	// preallocated ring.
	tb2 := NewTable(8, 4, 1)
	if n := testing.AllocsPerRun(1000, func() {
		sp := tb2.Acquire(1<<32|9, 0x02, 100)
		tb2.Finish(sp, 0, 10000)
	}); n != 0 {
		t.Fatalf("slow capture allocates %v bytes/op, want 0", n)
	}
}

func TestDumpRoundTripAndTimeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	spanID := uint64(3<<32 | 41)
	tag := SpanTag(spanID)
	d := &Dump{
		Reason:       "manual",
		CapturedAtNS: 12345,
		UptimeNS:     999,
		Addr:         "127.0.0.1:0",
		Mode:         "hw-undo-redo",
		Shards:       2,
		RingNames:    []string{"shard 0", "shard 1", "network"},
		RingStats:    []obs.RingStat{{Emitted: 5, Dropped: 0}, {}, {Emitted: 9, Dropped: 2}},
		Events: []Event{
			{TS: 1, Kind: "srv-recv", Ring: 2, Arg: 7, Span: tag},
			{TS: 2, Kind: "srv-enqueue", Ring: 0, Arg: 7, Span: tag},
			{TS: 3, Kind: "tx-begin", Ring: 0, TxID: 9, Span: tag},
			{TS: 4, Kind: "log-append", Ring: 0, TxID: 9, Arg: 100, Span: tag},
			{TS: 5, Kind: "log-wrap", Ring: 0, Arg: 1}, // untagged: not ours
			{TS: 6, Kind: "srv-recv", Ring: 2, Arg: 8, Span: tag + 1},
		},
		ShardStates: []ShardState{
			{Shard: 0, QueueLen: 3, QueueCap: 64, LogHead: 10, LogTail: 140, LogCap: 128, LogBases: []uint64{4096}},
			{Shard: 1, QueueLen: 0, QueueCap: 64, LogCap: 128, LogBases: []uint64{4096}},
		},
		InFlight: []SpanSnapshot{{ID: spanID, Op: 0x02, Shard: 0, Status: -1, TxID: 9, RecvNS: 1}},
	}
	if err := WriteDump(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != DumpVersion || got.Reason != "manual" || got.Shards != 2 ||
		len(got.Events) != 6 || len(got.InFlight) != 1 || len(got.ShardStates) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	tl := got.Timeline(spanID)
	if len(tl) != 4 {
		t.Fatalf("timeline has %d events, want 4: %+v", len(tl), tl)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i-1].TS > tl[i].TS {
			t.Fatal("timeline out of order")
		}
	}
	if got.Timeline(0) != nil {
		t.Fatal("span 0 must have no timeline (untraced sentinel)")
	}

	// Wrap-pressure helpers: tail 140 on a 128-record log is pass 1,
	// occupancy (140-10)/128.
	st := &got.ShardStates[0]
	if st.Pass() != 1 {
		t.Fatalf("Pass = %d, want 1", st.Pass())
	}
	if occ := st.Occupancy(); occ < 1.0 || occ > 1.02 {
		t.Fatalf("Occupancy = %v", occ)
	}

	// Version gate: an unknown version must refuse to load.
	d.Version = 99
	raw := *d
	raw.Version = 99
	bad := filepath.Join(dir, "bad.json")
	if err := writeRaw(bad, &raw); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDump(bad); err == nil {
		t.Fatal("LoadDump accepted unknown version")
	}
}

// writeRaw writes a dump bypassing WriteDump's version stamping.
func writeRaw(path string, d *Dump) error {
	data, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// TestStageDurations pins the per-stage latency decomposition: known
// marks yield exact durations, missing marks report -1, and a fully
// marked span's stages sum exactly to its recv→ack latency.
func TestStageDurations(t *testing.T) {
	full := SpanSnapshot{RecvNS: 100, EnqueueNS: 110, ApplyNS: 150, FwbNS: 180, DurableNS: 400, AckNS: 420}
	var d [NumLatStages]int64
	full.StageDurations(&d)
	want := [NumLatStages]int64{10, 40, 30, 220, 20}
	if d != want {
		t.Fatalf("StageDurations = %v, want %v", d, want)
	}
	var sum int64
	for _, v := range d {
		sum += v
	}
	if e2e := full.AckNS - full.RecvNS; sum != e2e {
		t.Fatalf("stage sum %d != e2e %d", sum, e2e)
	}
	// An inline-answered request never reaches the shard stages.
	inline := SpanSnapshot{RecvNS: 100, AckNS: 105}
	inline.StageDurations(&d)
	if d != [NumLatStages]int64{-1, -1, -1, -1, -1} {
		t.Fatalf("inline StageDurations = %v, want all -1", d)
	}
	// Out-of-order marks (torn snapshot) are unknown, not negative.
	torn := SpanSnapshot{RecvNS: 200, EnqueueNS: 150, ApplyNS: 220, FwbNS: 230, DurableNS: 240, AckNS: 250}
	torn.StageDurations(&d)
	if d[LatRoute] != -1 || d[LatQueue] != 70 {
		t.Fatalf("torn StageDurations = %v", d)
	}
	for i := 0; i < NumLatStages; i++ {
		if LatStageName(i) == "unknown" {
			t.Fatalf("stage %d unnamed", i)
		}
	}
	if LatStageName(-1) != "unknown" || LatStageName(NumLatStages) != "unknown" {
		t.Fatal("out-of-range stage names must be unknown")
	}
}

// TestImageOpenerResolutionOrder pins where a dump's shard images are
// looked for: the -images override, then the recorded path, then the
// dump's own directory; an unrecorded shard falls back to the server's
// file naming.
func TestImageOpenerResolutionOrder(t *testing.T) {
	root := t.TempDir()
	dir := func(name string) string {
		d := filepath.Join(root, name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		return d
	}
	recordedDir, imagesDir, dumpDir := dir("recorded"), dir("images"), dir("dump")
	place := func(d, base string) {
		if err := os.WriteFile(filepath.Join(d, base), []byte(filepath.Base(d)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		shard     int
		files     map[string]string // directory → file name placed there
		imagesDir string
		want      string // directory whose copy must be opened; "" = error
	}{
		{"override beats recorded and dump dir", 0,
			map[string]string{imagesDir: "s0.img", recordedDir: "s0.img", dumpDir: "s0.img"}, imagesDir, "images"},
		{"recorded path beats dump dir", 0,
			map[string]string{recordedDir: "s0.img", dumpDir: "s0.img"}, "", "recorded"},
		{"override set but empty falls through to recorded", 0,
			map[string]string{recordedDir: "s0.img"}, imagesDir, "recorded"},
		{"dump dir is the last resort", 0,
			map[string]string{dumpDir: "s0.img"}, "", "dump"},
		{"unrecorded shard uses the server's naming", 7,
			map[string]string{dumpDir: "shard-007.img"}, "", "dump"},
		{"nothing anywhere is an error", 0, nil, imagesDir, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range []string{recordedDir, imagesDir, dumpDir} {
				for _, base := range []string{"s0.img", "shard-007.img"} {
					os.Remove(filepath.Join(d, base))
				}
			}
			for d, base := range tc.files {
				place(d, base)
			}
			d := &Dump{ShardStates: []ShardState{{Shard: 0, ImagePath: filepath.Join(recordedDir, "s0.img")}}}
			rc, err := d.ImageOpener(filepath.Join(dumpDir, "flight-dump.json"), tc.imagesDir)(tc.shard)
			if tc.want == "" {
				if err == nil {
					rc.Close()
					t.Fatal("opened an image that exists nowhere")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			got, _ := io.ReadAll(rc)
			if string(got) != tc.want {
				t.Fatalf("opened the copy in %q, want %q", got, tc.want)
			}
		})
	}
}
