package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestEmitDisabledIsFreeAndAllocFree(t *testing.T) {
	tr := NewTracer(2, 16)
	// Disabled tracer: events vanish.
	tr.Emit(0, 1, KindTxBegin, 1, 0)
	if got := tr.Emitted(); got != 0 {
		t.Fatalf("disabled Emit recorded %d events", got)
	}
	// The acceptance criterion: the disabled path allocates zero bytes
	// per op. This covers both the nil-tracer and disabled-tracer
	// branches every instrumentation hook takes in a plain run.
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, 42, KindLogAppend, 7, 99)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %v bytes/op, want 0", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		nilTr.Emit(0, 42, KindLogAppend, 7, 99)
	}); n != 0 {
		t.Fatalf("nil-tracer Emit allocates %v bytes/op, want 0", n)
	}
	// Enabled Emit must not allocate either (a hot-path requirement).
	tr.Enable()
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, 42, KindLogAppend, 7, 99)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %v bytes/op, want 0", n)
	}
}

func TestRingOverwriteOldest(t *testing.T) {
	tr := NewTracer(1, 4)
	tr.Enable()
	for i := uint64(0); i < 10; i++ {
		tr.Emit(0, i, KindLogAppend, 0, i)
	}
	tr.Disable()
	if got := tr.RingStats()[0]; got != (RingStat{Emitted: 10, Dropped: 6}) {
		t.Fatalf("RingStats = %+v, want 10 emitted, 6 dropped", got)
	}
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("Snapshot kept %d events, want 4", len(evs))
	}
	// Overwrite-oldest: the survivors are the newest four, in order.
	for i, e := range evs {
		if want := uint64(6 + i); e.Arg != want {
			t.Fatalf("event %d has arg %d, want %d", i, e.Arg, want)
		}
	}
}

func TestSnapshotMergesAndSorts(t *testing.T) {
	tr := NewTracer(3, 8)
	tr.Enable()
	tr.Emit(1, 30, KindTxCommit, 2, 0)
	tr.Emit(0, 10, KindTxBegin, 1, 0)
	tr.Emit(2, 20, KindFwbScan, 0, 5)
	tr.Disable()
	evs := tr.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].TS > evs[i].TS {
			t.Fatalf("snapshot not sorted: %v", evs)
		}
	}
	if evs[0].Kind != KindTxBegin || evs[0].Ring != 0 || evs[0].TxID != 1 {
		t.Fatalf("decode mismatch: %+v", evs[0])
	}
}

func TestEmitOutOfRangeRingFoldsToMachineRing(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Enable()
	tr.Emit(99, 1, KindLogWrap, 0, 1)
	tr.Emit(-1, 2, KindLogStall, 0, 2)
	tr.Disable()
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Ring != 1 {
			t.Fatalf("event %+v landed in ring %d, want machine ring 1", e, e.Ring)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := NewTracer(1, 1024)
	tr.Enable()
	var wg sync.WaitGroup
	const workers, each = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(0, uint64(i), KindLogAppend, uint16(w), uint64(i))
			}
		}(w)
	}
	wg.Wait()
	tr.Disable()
	if got := tr.Emitted(); got != workers*each {
		t.Fatalf("Emitted = %d, want %d", got, workers*each)
	}
	if got := len(tr.Snapshot()); got != 1024 {
		t.Fatalf("Snapshot kept %d, want full ring 1024", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Max() != 1000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	// Log2 buckets bound the estimate to the true value's bucket.
	if p50 := h.Quantile(0.50); p50 < 500 || p50 > 1023 {
		t.Fatalf("p50 = %d, want within [500,1023]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 990 || p99 > 1000 {
		t.Fatalf("p99 = %d, want clamped to max-bucket range [990,1000]", p99)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want max 1000", q)
	}
	empty := &Histogram{}
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	s := h.Summary()
	if s.Count != 1000 || s.Max != 1000 || s.Mean < 500 || s.Mean > 501 {
		t.Fatalf("summary: %+v", s)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := &Histogram{}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	empty := &Histogram{}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want uint64
	}{
		// Out-of-range q clamps to the nearest valid quantile instead of
		// panicking or returning garbage, matching the stats.Percentile
		// NaN-clamp convention. Min-clamped q resolves to the first
		// occupied bucket's bound (the smallest sample is 1).
		{"nan-clamps-to-min", h, math.NaN(), 1},
		{"negative-clamps-to-min", h, -0.5, 1},
		{"zero-clamps-to-min", h, 0, 1},
		{"above-one-clamps-to-max", h, 1.5, 100},
		{"inf-clamps-to-max", h, math.Inf(1), 100},
		{"neg-inf-clamps-to-min", h, math.Inf(-1), 1},
		// Empty histogram: every q reports 0, no divide-by-zero.
		{"empty-mid", empty, 0.5, 0},
		{"empty-nan", empty, math.NaN(), 0},
		{"empty-above-one", empty, 2, 0},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
	// q=0 on a non-empty histogram still lands inside the observed
	// range: it resolves to the first occupied bucket's bound, capped
	// by Max, never above it.
	if got := h.Quantile(0); got > h.Max() {
		t.Errorf("Quantile(0) = %d exceeds max %d", got, h.Max())
	}
}

// TestQuantileFromBucketsExact pins the interpolation against exact
// values on known bucket fills: with every sample in one bucket the
// estimate must land on the interpolated position inside that bucket's
// bounds, and multi-bucket fills must cross at the correct bucket.
func TestQuantileFromBucketsExact(t *testing.T) {
	mk := func(fill map[int]uint64) []uint64 {
		b := make([]uint64, 65)
		for i, c := range fill {
			b[i] = c
		}
		return b
	}
	cases := []struct {
		name    string
		buckets []uint64
		q       float64
		max     uint64
		want    uint64
	}{
		// Bucket 3 spans [4,7]. 4 samples: q=0.25 is the 1st sample
		// → frac 1/4 → 4 + 0.25*3 = 4 (floor).
		{"single-bucket-q25", mk(map[int]uint64{3: 4}), 0.25, 0, 4},
		{"single-bucket-q50", mk(map[int]uint64{3: 4}), 0.50, 0, 5},
		{"single-bucket-q100", mk(map[int]uint64{3: 4}), 1.0, 0, 7},
		// Bucket 1 spans [1,1]: degenerate bounds interpolate to 1.
		{"degenerate-bucket", mk(map[int]uint64{1: 10}), 0.5, 0, 1},
		// Bucket 0 is exactly the value 0.
		{"zero-bucket", mk(map[int]uint64{0: 3}), 1.0, 0, 0},
		// Two buckets, 10 samples each: q=0.5 is sample 10, the last of
		// bucket 2 [2,3] → 2 + (10/10)*1 = 3; q=0.55 is sample 11, the
		// first of bucket 4 [8,15] → 8 + (1/10)*7 = 8.
		{"cross-at-boundary", mk(map[int]uint64{2: 10, 4: 10}), 0.50, 0, 3},
		{"cross-into-next", mk(map[int]uint64{2: 10, 4: 10}), 0.55, 0, 8},
		// Max clamp: interpolating past the true max clamps to it.
		{"max-clamps", mk(map[int]uint64{7: 5}), 1.0, 100, 100},
		// First of 5 samples in bucket 7 [64,127]: 64 + (1/5)*63 = 76.
		{"max-no-clamp-below", mk(map[int]uint64{7: 5}), 0.2, 100, 76},
		// Empty vector and q clamping.
		{"empty", mk(nil), 0.5, 0, 0},
		{"q-below-zero", mk(map[int]uint64{3: 4}), -1, 0, 4},
		{"q-above-one", mk(map[int]uint64{3: 4}), 2, 0, 7},
		{"q-nan", mk(map[int]uint64{3: 4}), math.NaN(), 0, 4},
	}
	for _, tc := range cases {
		if got := QuantileFromBuckets(tc.buckets, tc.q, tc.max); got != tc.want {
			t.Errorf("%s: QuantileFromBuckets(q=%v, max=%d) = %d, want %d",
				tc.name, tc.q, tc.max, got, tc.want)
		}
	}
}

// TestHistogramSnapshotDelta drives the Snapshot/DeltaSince pair the
// pulse windows are built on: deltas must be the exact between-snapshot
// fills, and the delta quantile must see only the window's samples.
func TestHistogramSnapshotDelta(t *testing.T) {
	h := &Histogram{}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	prev := h.Snapshot()
	if prev.Count != 100 || prev.Max != 100 {
		t.Fatalf("first snapshot: count=%d max=%d", prev.Count, prev.Max)
	}
	// Window 2: 10 samples of exactly 1000 (bucket 10, [512,1023]).
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	var cur, delta HistogramSnapshot
	h.SnapshotInto(&cur)
	cur.DeltaSince(&prev, &delta)
	if delta.Count != 10 {
		t.Fatalf("delta count = %d, want 10", delta.Count)
	}
	if delta.Sum != 10*1000 {
		t.Fatalf("delta sum = %d, want %d", delta.Sum, 10*1000)
	}
	for b, c := range delta.Buckets {
		want := uint64(0)
		if b == 10 {
			want = 10
		}
		if c != want {
			t.Fatalf("delta bucket %d = %d, want %d", b, c, want)
		}
	}
	// The whole-life p50 sits in the 1..100 mass; the window's p50 must
	// sit in bucket 10 — the first window's samples are invisible to it.
	if q := delta.Quantile(0.5); q < 512 || q > 1023 {
		t.Fatalf("delta p50 = %d, want within bucket 10 [512,1023]", q)
	}
	if q := h.Quantile(0.5); q > 200 {
		t.Fatalf("whole-life p50 = %d, want in the 1..100 mass", q)
	}
	// An empty window: delta of identical snapshots is all zeros.
	var again, empty HistogramSnapshot
	h.SnapshotInto(&again)
	again.DeltaSince(&again, &empty)
	if empty.Count != 0 || empty.Sum != 0 || empty.Quantile(0.99) != 0 {
		t.Fatalf("empty delta not zero: %+v", empty)
	}
	// Saturation: a skewed (older) cur never wraps around.
	prev.DeltaSince(&cur, &empty)
	if empty.Count != 0 {
		t.Fatalf("saturating delta count = %d, want 0", empty.Count)
	}
	// SnapshotInto is part of the pulse tick hot path: no allocation.
	if n := testing.AllocsPerRun(100, func() { h.SnapshotInto(&cur) }); n != 0 {
		t.Fatalf("SnapshotInto allocates %v/op, want 0", n)
	}
}

// TestHistogramDeltaSinceReset is the counter-reset table: a histogram
// restarted mid-window (dump-restore, process swap behind the same
// collector) must clamp the whole window to empty rather than emit a
// mixed bucket vector whose quantiles are garbage, and the following
// window must be a clean delta of the new life.
func TestHistogramDeltaSinceReset(t *testing.T) {
	// snap builds a snapshot with the given bucket fills (count and sum
	// derived, like a real histogram life would produce).
	snap := func(fills map[int]uint64) HistogramSnapshot {
		var s HistogramSnapshot
		for b, n := range fills {
			s.Buckets[b] = n
			s.Count += n
			v := uint64(0) // a representative value in bucket b
			if b > 0 {
				v = uint64(1) << uint(b-1)
			}
			s.Sum += n * v
			if v > s.Max {
				s.Max = v
			}
		}
		return s
	}
	cases := []struct {
		name      string
		prev, cur HistogramSnapshot
		wantReset bool
		wantCount uint64
	}{
		{
			name:      "steady-growth",
			prev:      snap(map[int]uint64{5: 10, 8: 2}),
			cur:       snap(map[int]uint64{5: 15, 8: 2, 10: 1}),
			wantReset: false,
			wantCount: 6,
		},
		{
			// The restore shrank every bucket: pure reset.
			name:      "reset-all-buckets-down",
			prev:      snap(map[int]uint64{5: 100, 8: 50}),
			cur:       snap(map[int]uint64{5: 3, 8: 1}),
			wantReset: true,
		},
		{
			// The dangerous case the per-field satSub got wrong: the new
			// life already outgrew prev in bucket 10 while bucket 5 went
			// backwards. Field-wise clamping would emit {10: 5} — a
			// spurious window whose p50 jumps to the new life's bucket.
			name:      "reset-mid-window-mixed",
			prev:      snap(map[int]uint64{5: 100, 10: 2}),
			cur:       snap(map[int]uint64{5: 4, 10: 7}),
			wantReset: true,
		},
		{
			// Count equal but a bucket moved backwards: still a reset.
			name:      "reset-same-count",
			prev:      snap(map[int]uint64{5: 4, 10: 4}),
			cur:       snap(map[int]uint64{5: 3, 10: 5}),
			wantReset: true,
		},
		{
			name:      "identical-snapshots",
			prev:      snap(map[int]uint64{5: 9}),
			cur:       snap(map[int]uint64{5: 9}),
			wantReset: false,
			wantCount: 0,
		},
	}
	for _, tc := range cases {
		var out HistogramSnapshot
		out.Buckets[3] = 99 // stale scratch: DeltaSince must overwrite fully
		tc.cur.DeltaSince(&tc.prev, &out)
		if tc.wantReset {
			if out.Count != 0 || out.Sum != 0 {
				t.Errorf("%s: reset window not empty: count=%d sum=%d", tc.name, out.Count, out.Sum)
			}
			for b, n := range out.Buckets {
				if n != 0 {
					t.Errorf("%s: reset window bucket %d = %d, want 0", tc.name, b, n)
				}
			}
			if q := out.Quantile(0.99); q != 0 {
				t.Errorf("%s: reset window p99 = %d, want 0", tc.name, q)
			}
			// The caller's baseline advances to cur, so the next window is
			// a clean delta of the new life.
			next := tc.cur
			for b := range next.Buckets {
				next.Buckets[b] += next.Buckets[b] // the new life doubles
			}
			next.Count *= 2
			var nw HistogramSnapshot
			next.DeltaSince(&tc.cur, &nw)
			if nw.Count != tc.cur.Count {
				t.Errorf("%s: post-reset window count = %d, want %d", tc.name, nw.Count, tc.cur.Count)
			}
		} else {
			if out.Count != tc.wantCount {
				t.Errorf("%s: delta count = %d, want %d", tc.name, out.Count, tc.wantCount)
			}
			if out.Buckets[3] == 99 {
				t.Errorf("%s: stale scratch bucket survived", tc.name)
			}
		}
		if out.Max != tc.cur.Max {
			t.Errorf("%s: out.Max = %d, want cur's lifetime max %d", tc.name, out.Max, tc.cur.Max)
		}
	}
	// DeltaSince stays on the pulse tick hot path: no allocation on
	// either the normal or the reset branch.
	big := snap(map[int]uint64{5: 100})
	small := snap(map[int]uint64{5: 1})
	var out HistogramSnapshot
	if n := testing.AllocsPerRun(100, func() {
		big.DeltaSince(&small, &out) // growth branch
		small.DeltaSince(&big, &out) // reset branch
	}); n != 0 {
		t.Fatalf("DeltaSince allocates %v/op, want 0", n)
	}
}

func TestEmitSpanRoundTrip(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Enable()
	const span = uint32(0xdeadbeef)
	tr.EmitSpan(0, 5, KindTxBegin, 42, 7, span)
	tr.Emit(1, 6, KindLogAppend, 42, 8) // plain Emit ⇒ span 0
	tr.Disable()
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if e := evs[0]; e.Span != span || e.Kind != KindTxBegin || e.TxID != 42 || e.Arg != 7 {
		t.Fatalf("span event decoded wrong: %+v", e)
	}
	if e := evs[1]; e.Span != 0 {
		t.Fatalf("plain Emit carried span %#x, want 0", e.Span)
	}
	// Same hot-path contract as Emit: no allocation when enabled.
	tr.Enable()
	if n := testing.AllocsPerRun(1000, func() {
		tr.EmitSpan(1, 42, KindLogAppend, 7, 99, span)
	}); n != 0 {
		t.Fatalf("enabled EmitSpan allocates %v bytes/op, want 0", n)
	}
	// Per-ring accounting surfaces emit and drop counts.
	st := tr.RingStats()
	if len(st) != 2 {
		t.Fatalf("RingStats len = %d, want 2", len(st))
	}
	if st[1].Emitted < 1 {
		t.Fatalf("ring 1 emitted = %d, want >= 1", st[1].Emitted)
	}
	var nilTr *Tracer
	if nilTr.RingStats() != nil {
		t.Fatal("nil tracer RingStats must be nil")
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123) }); n != 0 {
		t.Fatalf("Observe allocates %v bytes/op, want 0", n)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pm_requests_total", `op="get"`, "requests served")
	c.Add(3)
	r.Counter("pm_requests_total", `op="put"`, "requests served").Inc()
	g := r.Gauge("pm_queue_depth", "", "queued requests")
	g.Set(7)
	h := r.Histogram("pm_latency_ns", `op="get"`, "request latency")
	h.Observe(100)
	h.Observe(3000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pm_requests_total counter",
		`pm_requests_total{op="get"} 3`,
		`pm_requests_total{op="put"} 1`,
		"# TYPE pm_queue_depth gauge",
		"pm_queue_depth 7",
		"# TYPE pm_latency_ns histogram",
		`pm_latency_ns_bucket{op="get",le="+Inf"} 2`,
		`pm_latency_ns_sum{op="get"} 3100`,
		`pm_latency_ns_count{op="get"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative le buckets must be non-decreasing and the registry
	// must hand back the same series on re-lookup.
	if r.Counter("pm_requests_total", `op="get"`, "requests served") != c {
		t.Fatal("re-lookup returned a different counter")
	}
}

func TestChromeTraceExport(t *testing.T) {
	evs := []Event{
		{TS: 10, Kind: KindTxBegin, Ring: 0, TxID: 1},
		{TS: 12, Kind: KindLogAppend, Ring: 0, TxID: 1, Arg: 5},
		{TS: 15, Kind: KindLogWrap, Ring: 1, Arg: 2},
		{TS: 20, Kind: KindTxCommit, Ring: 0, TxID: 1},
		{TS: 25, Kind: KindTxCommit, Ring: 0, TxID: 9}, // begin lost to wrap
		{TS: 30, Kind: KindTxBegin, Ring: 0, TxID: 2},  // dangling begin
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs, 1, []string{"thread 0", "machine"}); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	begins, ends, wraps := 0, 0, 0
	for _, e := range tr.TraceEvents {
		switch {
		case e.Name == "txn" && e.Phase == "B":
			begins++
		case e.Name == "txn" && e.Phase == "E":
			ends++
		case e.Name == "log-wrap":
			wraps++
		}
	}
	if begins != 2 || ends != 2 {
		t.Fatalf("B/E unbalanced: %d begins, %d ends", begins, ends)
	}
	if wraps != 1 {
		t.Fatalf("wrap events = %d, want 1", wraps)
	}
}

func TestPhaseBreakdown(t *testing.T) {
	evs := []Event{
		{TS: 0, Kind: KindTxBegin, Ring: 0, TxID: 1},
		{TS: 10, Kind: KindLogAppend, Ring: 0, TxID: 1},
		{TS: 30, Kind: KindLogAppend, Ring: 0, TxID: 1},
		{TS: 35, Kind: KindTxCommit, Ring: 0, TxID: 1},
		{TS: 40, Kind: KindLogStall, Ring: 1},
		{TS: 50, Kind: KindTxBegin, Ring: 0, TxID: 2},
		{TS: 60, Kind: KindTxAbort, Ring: 0, TxID: 2},
	}
	bd := PhaseBreakdown(evs)
	if bd.Txns != 1 || bd.Aborts != 1 || bd.Stalls != 1 {
		t.Fatalf("breakdown: %+v", bd)
	}
	want := map[string]uint64{"pre-log": 10, "logging": 20, "commit": 5, "total": 35}
	for _, p := range bd.Phases {
		if p.P50 != want[p.Name] {
			t.Fatalf("phase %s p50 = %d, want %d", p.Name, p.P50, want[p.Name])
		}
	}
	var buf bytes.Buffer
	bd.Format(&buf)
	if !strings.Contains(buf.String(), "pre-log") {
		t.Fatalf("formatted breakdown missing phases:\n%s", buf.String())
	}
}
