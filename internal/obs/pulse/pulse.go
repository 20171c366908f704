// Package pulse is the windowed live-telemetry layer over the metrics
// registry and the flight recorder: a ring of per-interval delta
// snapshots that turns cumulative counters into rates, whole-life log2
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
// handles) or one struct copy of a shard's published view, every window
// slot is preallocated on the first tick, and the steady-state tick
// allocates nothing — guarded by TestPulseZeroAllocSteadyState,
// mirroring the shard-apply and nvlog alloc guards.
package pulse

import (
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

	Requests uint64
	Batches  uint64
	Saves    uint64
	Keys     uint64 // gauge: live keys in the shard's store

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

// series is one tracked histogram and its previous snapshot.
type series struct {
	name string
	h    *obs.Histogram
	prev obs.HistogramSnapshot
	cur  obs.HistogramSnapshot // tick scratch
}

// shardWindow is one shard's slice of one window.
type shardWindow struct {
	queueLen  int
	queueCap  int
	occupancy float64
	wrap      float64 // log passes advanced this window

	requests     uint64
	batches      uint64
	saves        uint64
	txns         uint64
	logAppends   uint64
	logTruncated uint64
	fwbScans     uint64
	nvramBytes   uint64

	// Scope deltas for this window (counts/bytes, not rates — BuildDoc
	// divides by the window span).
	payloadBytes     uint64
	logUndoBytes     uint64
	logRedoBytes     uint64
	logHeaderBytes   uint64
	logChecksumBytes uint64
	logBusBytes      uint64
	dataBusBytes     uint64
	updateAppends    uint64
	coalescible      uint64
	forcedWB         uint64
	naturalWB        uint64
	wastedForcedWB   uint64
	fwbFlagged       uint64
	txnsMeasured     uint64
	txnAmpMilliSum   uint64

	// Wrap-forecast inputs: records appended (tail advance) and
	// reclaimed (head advance) this window, plus end-of-window gauges.
	tailAdvance uint64
	headAdvance uint64
	logHead     uint64
	logTail     uint64
	logCap      uint64
	liveRecords uint64
}

// window is one completed interval's delta view.
type window struct {
	seq     uint64
	startNS int64
	endNS   int64

	ops    []obs.HistogramSnapshot // parallel to Collector.ops
	stages []obs.HistogramSnapshot // parallel to Collector.stages
	e2e    obs.HistogramSnapshot

	sloTotal uint64
	sloBad   uint64

	shards []shardWindow

	exemplars [MaxExemplars]Exemplar
	exN       int
}

// Collector is the windowed aggregation engine. Track* registration
// happens at setup, before the first Tick; Tick and the read side
// (BuildDoc, ShardPressure) may race freely with the request path —
// every source is atomic or a published copy, and the ring is
// mutex-guarded off the hot path.
type Collector struct {
	cfg Config

	mu     sync.Mutex
	ops    []series
	stages []series
	e2e    series

	sloTotal *obs.Counter
	sloBad   *obs.Counter
	prevSLO  [2]uint64 // total, bad

	prevShards   []ShardSample
	shardScratch ShardSample

	ring          []window
	pos           uint64 // completed windows ever taken
	windowStartNS int64

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
	c := &Collector{cfg: cfg}
	c.windowStartNS = cfg.NowNS()
	return c
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
	c.e2e = series{name: "e2e", h: h}
}

// TrackSLO registers the objective counters: total data requests and
// requests over the latency objective. Setup-time only.
func (c *Collector) TrackSLO(total, bad *obs.Counter) {
	c.sloTotal, c.sloBad = total, bad
}

// init preallocates the window ring for the tracked series (first Tick,
// under mu). After this the steady-state tick is allocation-free.
func (c *Collector) init() {
	c.ring = make([]window, c.cfg.Windows)
	for i := range c.ring {
		w := &c.ring[i]
		w.ops = make([]obs.HistogramSnapshot, len(c.ops))
		w.stages = make([]obs.HistogramSnapshot, len(c.stages))
		w.shards = make([]shardWindow, c.cfg.Shards)
	}
	c.prevShards = make([]ShardSample, c.cfg.Shards)
	// No baseline snapshots: prev stays zero, so the first window is a
	// delta from collector creation — the server builds its collector
	// at startup, making the first window "everything since boot",
	// which is the honest reading.
}

// Tick closes the current window: every tracked source is snapshotted,
// differenced against the previous snapshot, and the delta written into
// the ring slot in place. Steady-state allocation-free.
//
//pmlint:hot
func (c *Collector) Tick() {
	now := c.cfg.NowNS()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil {
		c.init()
	}
	w := &c.ring[c.pos%uint64(len(c.ring))]
	w.seq = c.pos
	w.startNS = c.windowStartNS
	w.endNS = now
	c.windowStartNS = now

	for i := range c.ops {
		s := &c.ops[i]
		s.h.SnapshotInto(&s.cur)
		s.cur.DeltaSince(&s.prev, &w.ops[i])
		s.prev = s.cur
	}
	for i := range c.stages {
		s := &c.stages[i]
		s.h.SnapshotInto(&s.cur)
		s.cur.DeltaSince(&s.prev, &w.stages[i])
		s.prev = s.cur
	}
	if c.e2e.h != nil {
		c.e2e.h.SnapshotInto(&c.e2e.cur)
		c.e2e.cur.DeltaSince(&c.e2e.prev, &w.e2e)
		c.e2e.prev = c.e2e.cur
	} else {
		w.e2e = obs.HistogramSnapshot{}
	}
	if c.sloTotal != nil {
		t, b := c.sloTotal.Value(), c.sloBad.Value()
		w.sloTotal = satSub(t, c.prevSLO[0])
		w.sloBad = satSub(b, c.prevSLO[1])
		c.prevSLO[0], c.prevSLO[1] = t, b
	} else {
		w.sloTotal, w.sloBad = 0, 0
	}
	for i := range w.shards {
		cur := &c.shardScratch
		*cur = ShardSample{}
		if c.cfg.SampleShard != nil {
			c.cfg.SampleShard(i, cur)
		}
		prev := &c.prevShards[i]
		sw := &w.shards[i]
		sw.queueLen, sw.queueCap = cur.QueueLen, cur.QueueCap
		sw.occupancy = 0
		if cur.LogCap > 0 {
			sw.occupancy = float64(cur.LogTail-cur.LogHead) / float64(cur.LogCap)
			sw.wrap = float64(satSub(cur.LogTail, prev.LogTail)) / float64(cur.LogCap)
		} else {
			sw.wrap = 0
		}
		sw.requests = satSub(cur.Requests, prev.Requests)
		sw.batches = satSub(cur.Batches, prev.Batches)
		sw.saves = satSub(cur.Saves, prev.Saves)
		sw.txns = satSub(cur.Txns, prev.Txns)
		sw.logAppends = satSub(cur.LogAppends, prev.LogAppends)
		sw.logTruncated = satSub(cur.LogTruncated, prev.LogTruncated)
		sw.fwbScans = satSub(cur.FwbScans, prev.FwbScans)
		sw.nvramBytes = satSub(cur.NVRAMWriteBytes, prev.NVRAMWriteBytes)
		sw.payloadBytes = satSub(cur.PayloadBytes, prev.PayloadBytes)
		sw.logUndoBytes = satSub(cur.LogUndoBytes, prev.LogUndoBytes)
		sw.logRedoBytes = satSub(cur.LogRedoBytes, prev.LogRedoBytes)
		sw.logHeaderBytes = satSub(cur.LogHeaderBytes, prev.LogHeaderBytes)
		sw.logChecksumBytes = satSub(cur.LogChecksumBytes, prev.LogChecksumBytes)
		sw.logBusBytes = satSub(cur.LogBusBytes, prev.LogBusBytes)
		sw.dataBusBytes = satSub(cur.DataBusBytes, prev.DataBusBytes)
		sw.updateAppends = satSub(cur.UpdateAppends, prev.UpdateAppends)
		sw.coalescible = satSub(cur.CoalescibleAppends, prev.CoalescibleAppends)
		sw.forcedWB = satSub(cur.ForcedWB, prev.ForcedWB)
		sw.naturalWB = satSub(cur.NaturalWB(), prev.NaturalWB())
		sw.wastedForcedWB = satSub(cur.WastedForcedWB, prev.WastedForcedWB)
		sw.fwbFlagged = satSub(cur.FwbFlagged, prev.FwbFlagged)
		sw.txnsMeasured = satSub(cur.TxnsMeasured, prev.TxnsMeasured)
		sw.txnAmpMilliSum = satSub(cur.TxnAmpMilliSum, prev.TxnAmpMilliSum)
		sw.tailAdvance = satSub(cur.LogTail, prev.LogTail)
		sw.headAdvance = satSub(cur.LogHead, prev.LogHead)
		sw.logHead, sw.logTail, sw.logCap = cur.LogHead, cur.LogTail, cur.LogCap
		sw.liveRecords = cur.LiveRecords
		*prev = *cur
	}

	c.exMu.Lock()
	w.exemplars = c.ex
	w.exN = c.exN
	c.exN = 0
	c.exFloor.Store(0)
	c.exMu.Unlock()

	c.pos++
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
// rate in log passes/sec, queue fill fraction, and log occupancy.
// ok=false before the first completed window or for an unknown shard —
// callers (the /healthz degraded gate) must treat that as healthy, not
// degraded.
func (c *Collector) ShardPressure(i int) (wrapPerSec, queueFrac, occupancy float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pos == 0 || i < 0 || i >= c.cfg.Shards {
		return 0, 0, 0, false
	}
	w := &c.ring[(c.pos-1)%uint64(len(c.ring))]
	sw := &w.shards[i]
	secs := float64(w.endNS-w.startNS) / 1e9
	if secs > 0 {
		wrapPerSec = sw.wrap / secs
	}
	if sw.queueCap > 0 {
		queueFrac = float64(sw.queueLen) / float64(sw.queueCap)
	}
	return wrapPerSec, queueFrac, sw.occupancy, true
}

// retained reports how many completed windows the ring still holds.
func (c *Collector) retained() int {
	n := c.pos
	if cap := uint64(len(c.ring)); n > cap {
		n = cap
	}
	return int(n)
}

// satSub is a saturating uint64 subtraction: a torn concurrent sample
// pair must clamp to an empty window, never wrap.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
