package pulse

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs"
)

// fakeClock is a manually-advanced telemetry clock.
type fakeClock struct{ ns atomic.Int64 }

func (f *fakeClock) now() int64      { return f.ns.Load() }
func (f *fakeClock) advance(d int64) { f.ns.Add(d) }

// testShards is a mutable SampleShard backend.
type testShards struct {
	mu      sync.Mutex
	samples []ShardSample
}

func (t *testShards) sample(i int, out *ShardSample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*out = t.samples[i]
}

func newTestCollector(clk *fakeClock, shards *testShards, reg *obs.Registry) (*Collector, *obs.Histogram, *obs.Histogram, *obs.Counter, *obs.Counter) {
	c := New(Config{
		Interval:     time.Second,
		Windows:      8,
		Shards:       len(shards.samples),
		SampleShard:  shards.sample,
		NowNS:        clk.now,
		SLOLatencyNS: int64(time.Millisecond),
		SLOBudget:    0.001,
	})
	opH := reg.Histogram("op_ns", `op="put"`, "")
	e2e := reg.Histogram("e2e_ns", "", "")
	total := reg.Counter("slo_total", "", "")
	bad := reg.Counter("slo_bad", "", "")
	c.TrackOp("put", opH)
	c.TrackE2E(e2e)
	c.TrackSLO(total, bad)
	return c, opH, e2e, total, bad
}

func TestPulseWindowedValues(t *testing.T) {
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 2)}
	for i := range shards.samples {
		shards.samples[i].QueueCap = 64
		shards.samples[i].LogCap = 1 << 20
	}
	c, opH, e2e, total, bad := newTestCollector(clk, shards, obs.NewRegistry())

	// Window 1: 100 op completions at 1..100ns, one SLO violation,
	// shard 0 handles 400 requests and advances the log half a pass.
	for v := uint64(1); v <= 100; v++ {
		opH.Observe(v)
		e2e.Observe(v)
	}
	total.Add(100)
	bad.Inc()
	shards.mu.Lock()
	shards.samples[0].Requests = 400
	shards.samples[0].LogTail = 1 << 19
	shards.samples[0].QueueLen = 16
	shards.mu.Unlock()
	clk.advance(1e9)
	c.Tick()

	d := c.BuildDoc(1)
	if d.Version != DocVersion || d.Seq != 1 || d.WindowsAggregated != 1 {
		t.Fatalf("doc header: %+v", d)
	}
	if len(d.Ops) != 1 || d.Ops[0].Op != "put" {
		t.Fatalf("ops: %+v", d.Ops)
	}
	q := d.Ops[0].Quantiles
	if q.Count != 100 || q.RatePerSec != 100 || q.MeanNS != 50.5 {
		t.Fatalf("window 1 op quantiles: %+v", q)
	}
	if q.P50NS < 32 || q.P50NS > 63 {
		t.Fatalf("window 1 p50 out of bucket [32,63]: %d", q.P50NS)
	}
	if d.SLO.Total != 100 || d.SLO.Bad != 1 {
		t.Fatalf("slo: %+v", d.SLO)
	}
	if d.SLO.BadFraction != 0.01 || d.SLO.BurnRate != 10 {
		t.Fatalf("slo burn: %+v", d.SLO)
	}
	s0 := d.Shards[0]
	if s0.ThroughputPerSec != 400 || s0.QueueLen != 16 || s0.QueueCap != 64 {
		t.Fatalf("shard 0: %+v", s0)
	}
	if s0.LogOccupancy != 0.5 || s0.WrapRatePerSec != 0.5 {
		t.Fatalf("shard 0 log pressure: %+v", s0)
	}
	if d.Shards[1].ThroughputPerSec != 0 {
		t.Fatalf("idle shard 1 has throughput: %+v", d.Shards[1])
	}

	// Window 2: 10 completions at 1000ns only; the windowed p50 must
	// reflect this window's bucket [512,1023], not the lifetime mix.
	for i := 0; i < 10; i++ {
		opH.Observe(1000)
		e2e.Observe(1000)
	}
	clk.advance(2e9) // a 2s window: rates must use real duration
	c.Tick()

	d = c.BuildDoc(1)
	q = d.Ops[0].Quantiles
	if q.Count != 10 || q.RatePerSec != 5 {
		t.Fatalf("window 2 rate: %+v", q)
	}
	if q.P50NS < 512 || q.P50NS > 1023 {
		t.Fatalf("window 2 p50 out of bucket [512,1023]: %d", q.P50NS)
	}
	// Aggregating both windows unions the buckets: 110 samples / 3s.
	d = c.BuildDoc(2)
	q = d.Ops[0].Quantiles
	if q.Count != 110 || q.RatePerSec != 110.0/3.0 {
		t.Fatalf("aggregate: %+v", q)
	}
	if len(d.History.ThroughputPerSec) != 2 || d.History.ThroughputPerSec[0] != 400 || d.History.ThroughputPerSec[1] != 0 {
		t.Fatalf("history throughput: %+v", d.History.ThroughputPerSec)
	}
	if d.History.WrapRatePerSec[0] != 0.5 {
		t.Fatalf("history wrap: %+v", d.History.WrapRatePerSec)
	}

	if occ := d.Shards[0].LogOccupancy; occ != 0.5 {
		t.Fatalf("aggregate occupancy is not the newest gauge: %v", occ)
	}
	// The latest window alone, as /healthz's degraded gate reads it.
	last := c.BuildDoc(1).Shards
	if len(last) != len(shards.samples) {
		t.Fatalf("latest window has %d shards, collector tracks %d", len(last), len(shards.samples))
	}
	if wrap, qf := last[0].WrapRatePerSec, float64(last[0].QueueLen)/float64(last[0].QueueCap); wrap != 0 || qf != 0.25 {
		t.Fatalf("shard pressure: wrap=%v queue=%v", wrap, qf)
	}
}

func TestPulseBeforeFirstTick(t *testing.T) {
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 1)}
	c, _, _, _, _ := newTestCollector(clk, shards, obs.NewRegistry())
	if s := c.BuildDoc(1).Shards; len(s) != 0 {
		t.Fatalf("shard pressure before first tick: %+v", s)
	}
	d := c.BuildDoc(4)
	if d.WindowsAggregated != 0 || d.WindowsRetained != 0 {
		t.Fatalf("empty doc: %+v", d)
	}
	if d.Shards == nil || d.Ops == nil {
		t.Fatal("empty doc must carry empty arrays, not nulls")
	}
}

func TestPulseExemplars(t *testing.T) {
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 1)}
	c, _, _, _, _ := newTestCollector(clk, shards, obs.NewRegistry())
	tbl := flight.NewTable(16, 4, int64(time.Hour))

	mkSpan := func(id uint64, latNS int64) *flight.Span {
		sp := tbl.Acquire(id, 0x02, 1000)
		sp.SetShard(0)
		sp.Mark(flight.StageEnqueue, 1000+latNS/10)
		sp.Mark(flight.StageApply, 1000+latNS/2)
		return sp
	}

	// Offer MaxExemplars+2 spans; only the slowest MaxExemplars stay.
	lats := []int64{500, 100, 900, 300, 700, 200}
	for i, lat := range lats {
		c.NoteFinished(mkSpan(uint64(i+1), lat), 0, 1000+lat)
	}
	// Floor is now 300 (kept: 900,700,500,300); a 250ns span must be
	// rejected on the atomic fast path without locking.
	if f := c.exFloor.Load(); f != 300 {
		t.Fatalf("exemplar floor: %d", f)
	}
	c.NoteFinished(mkSpan(100, 250), 0, 1250)

	clk.advance(1e9)
	c.Tick()
	d := c.BuildDoc(1)
	if len(d.Exemplars) != MaxExemplars {
		t.Fatalf("exemplar count: %d", len(d.Exemplars))
	}
	wantLats := []int64{900, 700, 500, 300}
	for i, e := range d.Exemplars {
		if e.LatNS != wantLats[i] {
			t.Fatalf("exemplar %d: got lat %d want %d (%+v)", i, e.LatNS, wantLats[i], d.Exemplars)
		}
		if e.Op != "put" || e.Shard != 0 || e.SpanID == 0 {
			t.Fatalf("exemplar %d attribution: %+v", i, e)
		}
	}
	// The slowest exemplar resolves its stage decomposition: route is
	// recv→enqueue, and unmarked stages are -1, not zero.
	top := d.Exemplars[0]
	if top.RouteNS != 90 || top.QueueNS != 360 {
		t.Fatalf("exemplar stages: %+v", top)
	}
	if top.FwbNS != -1 || top.AckNS != -1 {
		t.Fatalf("unmarked exemplar stages must be -1: %+v", top)
	}

	// Tick reset the capture: the next window starts empty.
	clk.advance(1e9)
	c.Tick()
	if d = c.BuildDoc(1); len(d.Exemplars) != 0 {
		t.Fatalf("exemplars leaked across windows: %+v", d.Exemplars)
	}
	// But aggregating both windows still surfaces the old ones.
	if d = c.BuildDoc(2); len(d.Exemplars) != MaxExemplars {
		t.Fatalf("aggregated exemplars: %+v", d.Exemplars)
	}
}

func TestPulseSchemaRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 2)}
	shards.samples[0] = ShardSample{QueueCap: 8, Requests: 7}
	shards.samples[0].LogCap, shards.samples[0].LogTail = 4096, 1024
	c, opH, e2e, total, bad := newTestCollector(clk, shards, obs.NewRegistry())
	for v := uint64(1); v <= 50; v++ {
		opH.Observe(v * 100)
		e2e.Observe(v * 100)
	}
	total.Add(50)
	bad.Add(2)
	tbl := flight.NewTable(4, 2, int64(time.Hour))
	sp := tbl.Acquire(42, 0x04, 10)
	sp.SetShard(1)
	sp.Mark(flight.StageEnqueue, 20)
	c.NoteFinished(sp, 0, 5000)
	clk.advance(1e9)
	c.Tick()

	d := c.BuildDoc(1)
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*d, back) {
		t.Fatalf("schema round trip drifted:\n  out: %+v\n  back: %+v", *d, back)
	}
	// Spot-check the wire names are stable — pmctl top depends on them.
	var loose map[string]any
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "seq", "shards", "ops", "stages", "e2e", "slo", "history", "exemplars"} {
		if _, found := loose[key]; !found {
			t.Fatalf("wire key %q missing: %s", key, raw)
		}
	}
}

// TestPulseConcurrentWriters runs writers against the tracked sources
// while ticking and reading: under -race this proves the snapshot path
// is torn-read free, and the final aggregate proves no completion is
// lost or double-counted across window boundaries.
func TestPulseConcurrentWriters(t *testing.T) {
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 1)}
	reg := obs.NewRegistry()
	c, opH, e2e, total, _ := newTestCollector(clk, shards, reg)
	tbl := flight.NewTable(8, 4, int64(time.Hour))

	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Ticker goroutine: close windows continuously while writes land.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.advance(1e6)
				c.Tick()
				_ = c.BuildDoc(3)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := tbl.Acquire(uint64(w+1), 0x02, 1)
			for i := 0; i < perWriter; i++ {
				v := uint64(i%1000 + 1)
				opH.Observe(v)
				e2e.Observe(v)
				total.Inc()
				c.NoteFinished(sp, 0, int64(v)+1)
			}
		}(w)
	}
	// Wait for writers only, then stop the ticker.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish fast; the ticker stops when told.
	for {
		if total.Value() == writers*perWriter {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	// One final window flushes anything after the last tick; the ring
	// is too small to retain every window, so re-baseline instead:
	// every completion must be in exactly one window (sum of retained
	// window counts ≤ total, and a fresh collector over the same
	// sources accounts for all of them).
	clk.advance(1e9)
	c.Tick()
	var retainedCount uint64
	d := c.BuildDoc(c.cfg.Windows)
	retainedCount = d.Ops[0].Count
	if retainedCount > writers*perWriter {
		t.Fatalf("windows double-counted: retained %d > written %d", retainedCount, writers*perWriter)
	}
	// Cross-check with a fresh collector taking one giant window over
	// the same histogram: its zero baseline must see every completion
	// exactly once.
	c2 := New(Config{Interval: time.Second, Windows: 2, Shards: 0, NowNS: clk.now})
	c2.TrackOp("put", opH)
	clk.advance(1e9)
	c2.Tick()
	if d2 := c2.BuildDoc(1); d2.Ops[0].Count != writers*perWriter {
		t.Fatalf("fresh collector lost completions: %d != %d", d2.Ops[0].Count, writers*perWriter)
	}
}

// TestPulseRingWrapAggregate ticks past the ring's capacity and checks
// that the aggregate over every retained window is exactly the sum of
// the last Windows windows — nothing from an evicted window leaks in,
// nothing retained is dropped — and that one window is the newest.
func TestPulseRingWrapAggregate(t *testing.T) {
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 1)}
	c, opH, _, _, _ := newTestCollector(clk, shards, obs.NewRegistry())
	const ticks = 20
	windows := c.cfg.Windows
	// Window w carries w op completions, 10w shard requests and 100w
	// payload bytes, so every window's contribution is distinct.
	for w := uint64(1); w <= ticks; w++ {
		for i := uint64(0); i < w; i++ {
			opH.Observe(w)
		}
		shards.mu.Lock()
		shards.samples[0].Requests += 10 * w
		shards.samples[0].PayloadBytes += 100 * w
		shards.mu.Unlock()
		clk.advance(1e9)
		c.Tick()
	}
	var sum uint64 // op completions in windows ticks-windows+1 .. ticks
	for w := uint64(ticks - windows + 1); w <= ticks; w++ {
		sum += w
	}
	secs := float64(windows)
	d := c.BuildDoc(windows)
	if d.WindowsAggregated != windows || d.WindowsRetained != windows || d.Seq != ticks {
		t.Fatalf("doc header: aggregated %d retained %d seq %d", d.WindowsAggregated, d.WindowsRetained, d.Seq)
	}
	if got := d.Ops[0].Count; got != sum {
		t.Fatalf("aggregate op count %d, want %d", got, sum)
	}
	if got, want := d.Shards[0].ThroughputPerSec, float64(10*sum)/secs; got != want {
		t.Fatalf("aggregate shard throughput %v, want %v", got, want)
	}
	if got, want := d.Scope.Shards[0].PayloadBytesPerSec, float64(100*sum)/secs; got != want {
		t.Fatalf("aggregate payload rate %v, want %v", got, want)
	}
	for k, got := range d.History.ThroughputPerSec {
		if want := float64(10 * (ticks - windows + 1 + k)); got != want {
			t.Fatalf("history window %d throughput %v, want %v", k, got, want)
		}
	}
	if over := c.BuildDoc(windows + 5); over.Ops[0].Count != sum {
		t.Fatalf("over-long aggregate not clamped to the ring: %d", over.Ops[0].Count)
	}

	d = c.BuildDoc(1)
	if d.Ops[0].Count != ticks || d.Shards[0].ThroughputPerSec != 10*ticks || d.Scope.Shards[0].PayloadBytesPerSec != 100*ticks {
		t.Fatalf("newest window: ops %d throughput %v payload %v", d.Ops[0].Count, d.Shards[0].ThroughputPerSec, d.Scope.Shards[0].PayloadBytesPerSec)
	}
}

func TestPulseZeroAllocSteadyState(t *testing.T) {
	clk := &fakeClock{}
	shards := &testShards{samples: make([]ShardSample, 4)}
	c, opH, e2e, total, bad := newTestCollector(clk, shards, obs.NewRegistry())
	tbl := flight.NewTable(4, 2, int64(time.Hour))
	sp := tbl.Acquire(7, 0x02, 100)
	sp.Mark(flight.StageEnqueue, 150)

	// Warm: first Tick allocates the ring, second proves reuse.
	for i := 0; i < 3; i++ {
		opH.Observe(uint64(i + 1))
		e2e.Observe(uint64(i + 1))
		total.Inc()
		bad.Inc()
		c.NoteFinished(sp, 0, int64(1000+i))
		clk.advance(1e9)
		c.Tick()
	}
	if n := testing.AllocsPerRun(100, func() {
		opH.Observe(42)
		c.NoteFinished(sp, 0, 2000)
		clk.advance(1e9)
		c.Tick()
	}); n != 0 {
		t.Fatalf("steady-state tick allocates: %v allocs/op", n)
	}
}
