// Package pulse is the windowed live-telemetry layer over the metrics
// registry and the flight recorder: a ring of cumulative points, one
// per tick, whose differences turn counters into rates, whole-life log2
// histograms into windowed p50/p95/p99/p99.9 (bucket interpolation),
// and gauges into last-sampled values — plus a stage-attribution engine
// that folds completed request spans into per-stage windowed histograms
// and retains tail exemplars (the slowest spans per window, with their
// full stage breakdown).
//
// The paper makes persistence invisible on the critical path; pulse
// exists because an operator cannot run a service on invisibility. Wrap
// rate per window watches circular-log reclamation, the FWB stage share
// watches forced-write-back pressure, and the stage waterfall is the
// live check on the steal/no-force instant-commit claim — all per shard
// and per interval, not lifetime averages.
//
// Cost contract: every source read in Tick is an atomic load (registry
// handles) or one struct copy of a shard's published view, every point
// is preallocated on the first tick, and the steady-state tick
// allocates nothing — guarded by TestPulseZeroAllocSteadyState,
// mirroring the shard-apply and nvlog alloc guards.
package pulse

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/scope"
)

// MaxExemplars is the per-window capacity of the tail-exemplar capture:
// the N slowest finished spans of each interval keep their full stage
// breakdown.
const MaxExemplars = 4

// ShardSample is one shard's loop-published view, sampled by the
// collector each tick and read as-is by every other consumer of shard
// state: the machine's scope.Snapshot beside the shard loop's own
// counters and queue gauges. The int fields, the log pointers and
// LiveRecords are gauges (last value wins); the rest are cumulative
// counters the window differences into rates.
type ShardSample struct {
	QueueLen int
	QueueCap int

	Requests      uint64
	Batches       uint64
	Saves         uint64
	Keys          uint64 // gauge: live keys in the shard's store
	HeapUsedBytes uint64 // gauge: persistent heap bytes handed out

	scope.Snapshot
}

// Config sizes a Collector.
type Config struct {
	// Interval is the window width the Run loop ticks at (default 1s).
	Interval time.Duration
	// Windows is the ring capacity of retained windows (default 64).
	Windows int
	// Shards is the per-shard series count; SampleShard is called with
	// 0..Shards-1 each tick and must only read the shard's published view.
	Shards      int
	SampleShard func(i int, out *ShardSample)
	// NowNS is the telemetry clock (nanoseconds since server start).
	NowNS func() int64
	// SLOLatencyNS is the end-to-end latency objective (default 20ms);
	// SLOBudget is the allowed fraction of requests over it (default
	// 0.001). Burn rate = observed bad fraction / budget: 1.0 burns the
	// error budget exactly as fast as it refills.
	SLOLatencyNS int64
	SLOBudget    float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Windows <= 0 {
		c.Windows = 64
	}
	if c.NowNS == nil {
		t0 := time.Now()
		c.NowNS = func() int64 { return int64(time.Since(t0)) }
	}
	if c.SLOLatencyNS <= 0 {
		c.SLOLatencyNS = int64(20 * time.Millisecond)
	}
	if c.SLOBudget <= 0 {
		c.SLOBudget = 0.001
	}
	return c
}

// Exemplar is one retained tail request: the span snapshot plus its
// end-to-end latency.
type Exemplar struct {
	Span  flight.SpanSnapshot `json:"span"`
	LatNS int64               `json:"lat_ns"`
}

// series is one tracked histogram.
type series struct {
	name string
	h    *obs.Histogram
}

// point is every tracked source read at one tick, cumulative since the
// process started: a window is the difference of two points. Registry
// histograms and counters never reset and a shard's view is published
// whole, so differencing any two points is exact — the same numbers the
// windows between them sum to.
type point struct {
	ns int64

	ops    []obs.HistogramSnapshot // parallel to Collector.ops
	stages []obs.HistogramSnapshot // parallel to Collector.stages
	e2e    obs.HistogramSnapshot

	sloTotal uint64
	sloBad   uint64

	shards []ShardSample

	// The tail exemplars of the window this point closes.
	exemplars [MaxExemplars]Exemplar
	exN       int
}

// Collector is the windowed aggregation engine. Track* registration
// happens at setup, before the first Tick; Tick and the read side
// (BuildDoc, ShardPressure) may race freely with the request path —
// every source is atomic or a published copy, and the ring is
// mutex-guarded off the hot path.
type Collector struct {
	cfg    Config
	bootNS int64 // point 0's time: collector creation

	mu     sync.Mutex
	ops    []series
	stages []series
	e2e    *obs.Histogram

	sloTotal *obs.Counter
	sloBad   *obs.Counter

	// points is a ring of the last Windows+1 points: point k (the k-th
	// tick; point 0 is the all-zero creation point) lives at
	// points[k%len(points)], and pos is the newest point's k, which is
	// also the number of completed windows.
	points []point
	pos    uint64

	// Tail-exemplar capture for the current (open) window. exFloor is
	// the fast-path rejection gate: once the slot set is full it holds
	// the smallest retained latency, so the per-request check is one
	// atomic load.
	exMu    sync.Mutex
	ex      [MaxExemplars]Exemplar
	exN     int
	exFloor atomic.Int64
}

// New builds a collector; register series with the Track methods before
// the first Tick.
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{cfg: cfg, bootNS: cfg.NowNS()}
}

// Interval reports the configured window width.
func (c *Collector) Interval() time.Duration { return c.cfg.Interval }

// TrackOp registers a per-op latency histogram (windowed quantiles +
// completion rate). Setup-time only.
func (c *Collector) TrackOp(name string, h *obs.Histogram) {
	c.ops = append(c.ops, series{name: name, h: h})
}

// TrackStage registers a per-stage latency histogram in waterfall
// order. Setup-time only.
func (c *Collector) TrackStage(name string, h *obs.Histogram) {
	c.stages = append(c.stages, series{name: name, h: h})
}

// TrackE2E registers the end-to-end latency histogram the stage shares
// are measured against. Setup-time only.
func (c *Collector) TrackE2E(h *obs.Histogram) {
	c.e2e = h
}

// TrackSLO registers the objective counters: total data requests and
// requests over the latency objective. Setup-time only.
func (c *Collector) TrackSLO(total, bad *obs.Counter) {
	c.sloTotal, c.sloBad = total, bad
}

// init preallocates the point ring for the tracked series (first Tick,
// under mu). After this the steady-state tick is allocation-free.
func (c *Collector) init() {
	c.points = make([]point, c.cfg.Windows+1)
	for i := range c.points {
		p := &c.points[i]
		p.ops = make([]obs.HistogramSnapshot, len(c.ops))
		p.stages = make([]obs.HistogramSnapshot, len(c.stages))
		p.shards = make([]ShardSample, c.cfg.Shards)
	}
	// Point 0 is all zero at collector creation: the server builds its
	// collector at startup, so the first window is "everything since
	// boot", which is the honest reading.
	c.points[0].ns = c.bootNS
}

// point returns point k of the ring (k within the last Windows+1).
func (c *Collector) point(k uint64) *point {
	return &c.points[k%uint64(len(c.points))]
}

// Tick closes the current window: every tracked source is read into the
// next point of the ring, in place. Steady-state allocation-free.
//
//pmlint:hot
func (c *Collector) Tick() {
	now := c.cfg.NowNS()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.points == nil {
		c.init()
	}
	c.pos++
	p := c.point(c.pos)
	p.ns = now
	for i := range c.ops {
		c.ops[i].h.SnapshotInto(&p.ops[i])
	}
	for i := range c.stages {
		c.stages[i].h.SnapshotInto(&p.stages[i])
	}
	if c.e2e != nil {
		c.e2e.SnapshotInto(&p.e2e)
	}
	if c.sloTotal != nil {
		p.sloTotal, p.sloBad = c.sloTotal.Value(), c.sloBad.Value()
	}
	for i := range p.shards {
		p.shards[i] = ShardSample{}
		if c.cfg.SampleShard != nil {
			c.cfg.SampleShard(i, &p.shards[i])
		}
	}

	c.exMu.Lock()
	p.exemplars, p.exN = c.ex, c.exN
	c.exN = 0
	c.exFloor.Store(0)
	c.exMu.Unlock()
}

// NoteFinished offers a finishing span to the tail-exemplar capture:
// the slowest MaxExemplars requests of the current window keep their
// full snapshot. Called by the conn writer just before the span is
// recycled; the fast path is one atomic load when the request is not
// tail-worthy. Allocation-free.
//
//pmlint:hot
func (c *Collector) NoteFinished(sp *flight.Span, status byte, ackNS int64) {
	if c == nil || sp == nil {
		return
	}
	lat := ackNS - sp.StageNS(flight.StageRecv)
	if lat <= 0 {
		return
	}
	if floor := c.exFloor.Load(); floor != 0 && lat <= floor {
		return
	}
	c.exMu.Lock()
	defer c.exMu.Unlock()
	slot := -1
	if c.exN < MaxExemplars {
		slot = c.exN
		c.exN++
	} else {
		min := 0
		for i := 1; i < MaxExemplars; i++ {
			if c.ex[i].LatNS < c.ex[min].LatNS {
				min = i
			}
		}
		if c.ex[min].LatNS >= lat {
			return
		}
		slot = min
	}
	e := &c.ex[slot]
	sp.SnapshotInto(&e.Span)
	e.Span.Status = int(status)
	e.Span.AckNS = ackNS
	e.LatNS = lat
	if c.exN == MaxExemplars {
		floor := c.ex[0].LatNS
		for i := 1; i < MaxExemplars; i++ {
			if c.ex[i].LatNS < floor {
				floor = c.ex[i].LatNS
			}
		}
		c.exFloor.Store(floor)
	}
}

// Run ticks the collector every Interval until stop closes. The ticker
// goroutine owns nothing: a concurrent manual Tick (tests, -once
// tooling) just closes a shorter window.
func (c *Collector) Run(stop <-chan struct{}) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Windows reports how many completed windows have been taken (the ring
// retains the last min(Windows, this) of them).
func (c *Collector) Windows() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos
}

// ShardPressure reports shard i's most recent completed window: wrap
// rate in log passes/sec and queue fill fraction. ok=false before the
// first completed window or for an unknown shard — callers (the
// /healthz degraded gate) must treat that as healthy, not degraded.
func (c *Collector) ShardPressure(i int) (wrapPerSec, queueFrac float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pos == 0 || i < 0 || i >= c.cfg.Shards {
		return 0, 0, false
	}
	end, start := c.point(c.pos), c.point(c.pos-1)
	s := &end.shards[i]
	if secs := float64(end.ns-start.ns) / 1e9; secs > 0 {
		wrapPerSec = wraps(s, satSub(s.LogTail, start.shards[i].LogTail)) / secs
	}
	if s.QueueCap > 0 {
		queueFrac = float64(s.QueueLen) / float64(s.QueueCap)
	}
	return wrapPerSec, queueFrac, true
}

// retained reports how many completed windows the ring still holds.
func (c *Collector) retained() int {
	return int(min(c.pos, uint64(c.cfg.Windows)))
}

// wraps converts a tail advance into log passes at end's capacity (0
// for a shard without a log). One capacity serves a multi-window
// advance because serving never resizes a log (log_grow is off).
func wraps(end *ShardSample, tailAdvance uint64) float64 {
	if end.LogCap == 0 {
		return 0
	}
	return float64(tailAdvance) / float64(end.LogCap)
}

// sampleSince returns end − start for every uint64 field of a
// ShardSample, the embedded scope.Snapshot included, saturating at zero
// so a torn pair clamps to an empty window; int fields keep end's
// value. Walking the struct means a counter added to scope.Ledger,
// scope.Snapshot or ShardSample is windowed with no edit here. Gauges
// difference too: read them from end, except LogHead and LogTail, whose
// differences are the window's reclaim and append advances.
func sampleSince(end, start *ShardSample) ShardSample {
	d := *end
	subFields(reflect.ValueOf(&d).Elem(), reflect.ValueOf(start).Elem())
	return d
}

func subFields(d, start reflect.Value) {
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Struct:
			subFields(f, start.Field(i))
		case reflect.Uint64:
			f.SetUint(satSub(f.Uint(), start.Field(i).Uint()))
		}
	}
}

// satSub is a saturating uint64 subtraction: a torn concurrent sample
// pair must clamp to an empty window, never wrap.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
