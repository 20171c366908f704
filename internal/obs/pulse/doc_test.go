package pulse

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pmemlog/internal/obs"
	"pmemlog/internal/obs/scope"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scopeSample builds a deterministic cumulative ShardSample as if a
// shard had run a known workload.
func scopeSample(scale uint64) ShardSample {
	return ShardSample{
		QueueCap: 8,
		Requests: 50 * scale,
		Snapshot: scope.Snapshot{
			LogHead:         40 * scale,
			LogTail:         100 * scale,
			LogCap:          4096,
			Txns:            50 * scale,
			LogAppends:      150 * scale,
			LogTruncated:    40 * scale,
			FwbScans:        2 * scale,
			NVRAMWriteBytes: 9000 * scale,
			FwbFlagged:      30 * scale,
			DataWrites:      20 * scale, // 10 forced + 10 natural
			FwbForced:       10 * scale,
			LiveRecords:     60 * scale,
			Ledger: scope.Ledger{
				PayloadBytes:       800 * scale,
				LogUndoBytes:       800 * scale,
				LogRedoBytes:       800 * scale,
				LogHeaderBytes:     2000 * scale,
				LogChecksumBytes:   200 * scale,
				UpdateAppends:      100 * scale,
				CoalescibleAppends: 25 * scale,
				WastedForcedWB:     2 * scale,
				TxnsMeasured:       50 * scale,
				TxnAmpMilliSum:     240_000 * scale,
			},
		},
	}
}

// buildScopeDoc drives a collector through two deterministic windows and
// returns the aggregate document — shared by the golden and compat
// tests so both pin the same bytes.
func buildScopeDoc(t *testing.T) *Doc {
	t.Helper()
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 2)}
	c, opH, e2e, total, _ := newTestCollector(clk, shards, obs.NewRegistry())
	for v := uint64(1); v <= 10; v++ {
		opH.Observe(v * 64)
		e2e.Observe(v * 64)
	}
	total.Add(10)
	for _, scale := range []uint64{1, 2} {
		shards.mu.Lock()
		shards.samples[0] = scopeSample(scale)
		shards.mu.Unlock()
		clk.advance(1e9)
		c.Tick()
	}
	return c.BuildDoc(2)
}

// TestScopeGoldenRoundTrip pins the v2 document's wire form — scope
// section included — against a committed golden file, then proves the
// bytes decode back to the identical in-memory document. Any field
// rename, type change, or numeric drift in the scope math shows up as a
// golden diff, which is the point: the schema version only means
// something if the wire form cannot drift silently.
func TestScopeGoldenRoundTrip(t *testing.T) {
	d := buildScopeDoc(t)
	if d.Version != 2 {
		t.Fatalf("DocVersion = %d; the golden file pins v2 — regenerate it (go test -run Golden -update) and bump this check deliberately", d.Version)
	}
	raw, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	golden := filepath.Join("testdata", "pulse_v2_scope.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(raw) != string(want) {
		t.Fatalf("document drifted from golden %s (run with -update if intended)\n got: %s", golden, raw)
	}
	var back Doc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	reRaw, err := json.MarshalIndent(&back, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(reRaw, '\n')) != string(want) {
		t.Fatal("golden document did not survive a decode/encode round trip")
	}
	// Sanity-pin the scope numbers the golden encodes: cumulative
	// sample scale 2 over 2s → rates are the scale-2 totals halved.
	sc := back.Scope.Shards[0]
	if sc.CoalescibleFraction != 0.25 {
		t.Fatalf("coalescible fraction: %v", sc.CoalescibleFraction)
	}
	// write amp = (log 7600 + wb 40*64) / payload 1600 = 6.35
	if sc.WriteAmp != 6.35 {
		t.Fatalf("write amp: %v", sc.WriteAmp)
	}
	if sc.TxnWriteAmpMean != 4.8 {
		t.Fatalf("txn write amp mean: %v", sc.TxnWriteAmpMean)
	}
	if sc.WastedForcedFraction != 0.2 {
		t.Fatalf("wasted forced fraction: %v", sc.WastedForcedFraction)
	}
	if sc.LiveRecords != 120 || sc.ReplayEstRecords != 120 {
		t.Fatalf("residency: %+v", sc)
	}
	// Wrap forecast: 100 records/s append, tail at 200 of 4096 →
	// (4096-200)/100 = 38.96s; full: free = 4096-(200-80) = 3976 at
	// net (100-40)/s = 66.266…s.
	if sc.WrapETASeconds != 38.96 {
		t.Fatalf("wrap eta: %v", sc.WrapETASeconds)
	}
	if sc.FullETASeconds < 66.2 || sc.FullETASeconds > 66.3 {
		t.Fatalf("full eta: %v", sc.FullETASeconds)
	}
	// The idle shard carries unknown forecasts, not zero (zero would
	// read as "wrapping NOW").
	if idle := back.Scope.Shards[1]; idle.WrapETASeconds != -1 || idle.FullETASeconds != -1 {
		t.Fatalf("idle shard forecast should be -1: %+v", idle)
	}
}

// TestDocDecodeV1Compat proves the version bump is non-breaking for
// stored documents: a v1 /pulse.json (captured before the scope section
// existed) must decode under the v2 struct with every v1 field intact
// and a zero Scope — consumers gate rendering on Version, they do not
// fail to parse.
func TestDocDecodeV1Compat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pulse_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("v1 document failed to decode under the v2 struct: %v", err)
	}
	if d.Version != 1 {
		t.Fatalf("version: %d", d.Version)
	}
	if d.Seq != 3 || d.WindowsAggregated != 1 || len(d.Shards) != 1 {
		t.Fatalf("v1 fields lost in decode: %+v", d)
	}
	if d.Shards[0].ThroughputPerSec != 400 || d.Shards[0].LogOccupancy != 0.5 {
		t.Fatalf("v1 shard fields lost: %+v", d.Shards[0])
	}
	if d.E2E.Count != 100 || d.SLO.Total != 100 {
		t.Fatalf("v1 e2e/slo lost: %+v / %+v", d.E2E, d.SLO)
	}
	var zero ScopeDoc
	if len(d.Scope.Shards) != 0 || d.Scope.WriteAmp != zero.WriteAmp {
		t.Fatalf("v1 doc grew a scope section from nowhere: %+v", d.Scope)
	}
}

// TestScopeWrapForecast drives constant append/reclaim rates through
// the collector and checks the forecast against the wrap that then
// actually happens — the pulse-level half of the ±25% acceptance
// criterion (the server e2e covers the live-machine half). With
// perfectly steady rates the forecast should be essentially exact;
// the assertion still allows the ±25% band so mild quantization (a
// tail advance landing just inside a window boundary) cannot flake.
func TestScopeWrapForecast(t *testing.T) {
	const (
		capRecords = 1000
		appendsPS  = 100 // records per 1s window
		reclaimPS  = 60
	)
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 1)}
	c, _, _, _, _ := newTestCollector(clk, shards, obs.NewRegistry())

	var cur ShardSample
	cur.LogCap = capRecords
	advanceWindow := func() {
		cur.LogTail += appendsPS
		cur.LogHead += reclaimPS
		shards.mu.Lock()
		shards.samples[0] = cur
		shards.mu.Unlock()
		clk.advance(1e9)
		c.Tick()
	}

	// Warm up three windows, then take the forecast.
	for i := 0; i < 3; i++ {
		advanceWindow()
	}
	forecast := c.BuildDoc(3).Scope.Shards[0]
	if forecast.WrapETASeconds <= 0 {
		t.Fatalf("no forecast under steady appends: %+v", forecast)
	}
	// Observe the actual wrap: windows until the tail crosses capacity.
	tailAt := cur.LogTail
	observed := 0.0
	for cur.LogTail/capRecords == tailAt/capRecords {
		advanceWindow()
		observed++
	}
	if err := forecast.WrapETASeconds - observed; err > 0.25*observed || err < -0.25*observed {
		t.Fatalf("wrap forecast %.2fs vs observed %.0fs: outside ±25%%", forecast.WrapETASeconds, observed)
	}
	// The full forecast must be longer than the wrap forecast (reclaim
	// buys headroom a wrap does not) and finite under net pressure.
	if forecast.FullETASeconds <= forecast.WrapETASeconds {
		t.Fatalf("full eta %.2f <= wrap eta %.2f", forecast.FullETASeconds, forecast.WrapETASeconds)
	}

	// Reclaim keeping pace exactly: the full forecast must go unknown
	// (-1), never negative or zero.
	c2, _, _, _, _ := newTestCollector(clk, shards, obs.NewRegistry())
	cur = ShardSample{}
	cur.LogCap = capRecords
	for i := 0; i < 2; i++ {
		cur.LogTail += appendsPS
		cur.LogHead += appendsPS
		shards.mu.Lock()
		shards.samples[0] = cur
		shards.mu.Unlock()
		clk.advance(1e9)
		c2.Tick()
	}
	balanced := c2.BuildDoc(1).Scope.Shards[0]
	if balanced.FullETASeconds != -1 {
		t.Fatalf("balanced reclaim should give unknown full eta: %+v", balanced)
	}
	if balanced.WrapETASeconds <= 0 {
		t.Fatalf("balanced reclaim still wraps on schedule: %+v", balanced)
	}
}
