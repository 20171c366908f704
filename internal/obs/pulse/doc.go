// Doc building: the versioned JSON document served at /pulse.json and
// rendered by pmctl top. BuildDoc aggregates the last N completed windows
// as one difference of cumulative points — a multi-window p99 is a real
// quantile of the union's buckets, not an average of averages.
package pulse

import (
	"sort"

	"pmemlog/internal/flight"
	"pmemlog/internal/mem"
	"pmemlog/internal/obs"
)

// DocVersion is the /pulse.json schema version. Consumers (pmctl top)
// refuse documents with a version they do not know.
//
// History: v1 = latency/liveness (ops, stages, shards, SLO, history);
// v2 added the `scope` persistence-domain cost section. The bump is
// additive — a v1 document decodes under the v2 struct with a zero
// Scope (see TestDocDecodeV1Compat) — but consumers that render scope
// must gate on the version, so it counts as a schema change.
const DocVersion = 2

// maxDocExemplars caps the exemplar list in one document.
const maxDocExemplars = 8

// Quantiles is a windowed latency summary: completion count and rate
// plus interpolated quantiles of the summed delta buckets.
type Quantiles struct {
	Count      uint64  `json:"count"`
	RatePerSec float64 `json:"rate_per_sec"`
	MeanNS     float64 `json:"mean_ns"`
	P50NS      uint64  `json:"p50_ns"`
	P95NS      uint64  `json:"p95_ns"`
	P99NS      uint64  `json:"p99_ns"`
	P999NS     uint64  `json:"p999_ns"`
	MaxNS      uint64  `json:"max_ns"`
}

// OpDoc is one op's windowed latency summary.
type OpDoc struct {
	Op string `json:"op"`
	Quantiles
}

// StageDoc is one pipeline stage's windowed latency summary plus its
// share of the end-to-end p99 — the waterfall pmctl top draws. Shares of a
// fully-marked pipeline sum to ~1.0 of the e2e p99; a stage share that
// dominates names the bottleneck in the paper's vocabulary (an "fwb"
// share spike is forced-write-back pressure).
type StageDoc struct {
	Stage string `json:"stage"`
	Quantiles
	ShareP99 float64 `json:"share_p99"`
}

// ShardDoc is one shard's windowed rates and pressure gauges.
type ShardDoc struct {
	Shard            int     `json:"shard"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	BatchesPerSec    float64 `json:"batches_per_sec"`
	SavesPerSec      float64 `json:"saves_per_sec"`
	TxnsPerSec       float64 `json:"txns_per_sec"`
	LogAppendsPerSec float64 `json:"log_appends_per_sec"`
	LogTruncPerSec   float64 `json:"log_trunc_per_sec"`
	FwbScansPerSec   float64 `json:"fwb_scans_per_sec"`
	NVRAMBytesPerSec float64 `json:"nvram_bytes_per_sec"`
	QueueLen         int     `json:"queue_len"`
	QueueCap         int     `json:"queue_cap"`
	LogOccupancy     float64 `json:"log_occupancy"`
	WrapRatePerSec   float64 `json:"wrap_rate_per_sec"`
}

// ScopeShardDoc is one shard's windowed persistence-domain cost view:
// where every NVRAM byte went (log classes, forced/natural
// write-backs), what it bought (payload), and how long the circular log
// can keep absorbing it (wrap/full forecast). ETAs are -1 when unknown
// (no appends this window, or reclaim keeps up).
type ScopeShardDoc struct {
	Shard int `json:"shard"`

	PayloadBytesPerSec     float64 `json:"payload_bytes_per_sec"`
	LogBytesPerSec         float64 `json:"log_bytes_per_sec"`
	LogUndoBytesPerSec     float64 `json:"log_undo_bytes_per_sec"`
	LogRedoBytesPerSec     float64 `json:"log_redo_bytes_per_sec"`
	LogHeaderBytesPerSec   float64 `json:"log_header_bytes_per_sec"`
	LogChecksumBytesPerSec float64 `json:"log_checksum_bytes_per_sec"`
	ForcedWBBytesPerSec    float64 `json:"forced_wb_bytes_per_sec"`
	NaturalWBBytesPerSec   float64 `json:"natural_wb_bytes_per_sec"`

	// WriteAmp = (log + forced-WB + natural-WB bytes) / payload bytes
	// over the aggregated windows; TxnWriteAmpMean is the mean of the
	// per-transaction log-bytes/payload ratios committed this window.
	WriteAmp        float64 `json:"write_amp"`
	TxnWriteAmpMean float64 `json:"txn_write_amp_mean"`

	// CoalescibleFraction is the share of update appends that re-hit a
	// line their transaction had already logged; WastedForcedFraction
	// the share of forced write-backs re-dirtied before the next scan.
	CoalescibleFraction  float64 `json:"coalescible_fraction"`
	WastedForcedFraction float64 `json:"wasted_forced_fraction"`

	// Scan productivity: lines forced out and lines newly flagged per
	// scan pass this window.
	FwbForcedPerScan  float64 `json:"fwb_forced_per_scan"`
	FwbFlaggedPerScan float64 `json:"fwb_flagged_per_scan"`

	// Residency: records currently live in the log (recovery replays at
	// most these — the Sauer/Härder bound recovery time should track).
	LiveRecords      uint64 `json:"live_records"`
	ReplayEstRecords uint64 `json:"replay_est_records"`

	// WrapETASeconds forecasts when the tail next crosses a capacity
	// boundary (a log wrap) at this window's append rate;
	// FullETASeconds when the log runs out of free records at the net
	// (append - reclaim) rate.
	WrapETASeconds float64 `json:"wrap_eta_seconds"`
	FullETASeconds float64 `json:"full_eta_seconds"`
}

// ScopeDoc is the cluster-wide persistence-domain cost summary plus the
// per-shard breakdown.
type ScopeDoc struct {
	WriteAmp            float64         `json:"write_amp"`
	PayloadBytesPerSec  float64         `json:"payload_bytes_per_sec"`
	LogBytesPerSec      float64         `json:"log_bytes_per_sec"`
	WBBytesPerSec       float64         `json:"wb_bytes_per_sec"`
	CoalescibleFraction float64         `json:"coalescible_fraction"`
	Shards              []ScopeShardDoc `json:"shards"`
}

// SLODoc is the latency-objective burn view over the aggregated
// windows. BurnRate is bad-fraction/budget: 1.0 consumes the error
// budget exactly as fast as it refills; >1 is an active burn.
type SLODoc struct {
	ObjectiveNS int64   `json:"objective_ns"`
	Budget      float64 `json:"budget"`
	Total       uint64  `json:"total"`
	Bad         uint64  `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
}

// ExemplarDoc is one retained tail request with its stage breakdown.
// SpanID is the wire span ID — resolvable against a flight dump
// (pmctl doctor -span). Stage durations of -1 mean the mark was missing.
type ExemplarDoc struct {
	SpanID  uint64 `json:"span_id"`
	Op      string `json:"op"`
	Shard   int    `json:"shard"`
	Status  int    `json:"status"`
	LatNS   int64  `json:"lat_ns"`
	RouteNS int64  `json:"route_ns"`
	QueueNS int64  `json:"queue_ns"`
	ApplyNS int64  `json:"apply_ns"`
	FwbNS   int64  `json:"fwb_ns"`
	AckNS   int64  `json:"ack_ns"`
}

// HistoryDoc is the per-window trend over every retained window, oldest
// first — what pmctl top draws sparklines from.
type HistoryDoc struct {
	WindowNS         []int64   `json:"window_ns"`
	ThroughputPerSec []float64 `json:"throughput_per_sec"`
	WrapRatePerSec   []float64 `json:"wrap_rate_per_sec"`
	P99NS            []uint64  `json:"p99_ns"`
	BurnRate         []float64 `json:"burn_rate"`
}

// Doc is the /pulse.json document.
type Doc struct {
	Version      int    `json:"version"`
	Addr         string `json:"addr,omitempty"`
	Mode         string `json:"mode,omitempty"`
	CapturedAtNS int64  `json:"captured_at_ns"`
	UptimeNS     int64  `json:"uptime_ns"`
	IntervalNS   int64  `json:"interval_ns"`
	// Seq counts completed windows since start; two documents with the
	// same Seq describe the same windows.
	Seq uint64 `json:"seq"`
	// WindowsAggregated is how many windows the Ops/Stages/E2E/SLO/
	// Shards summaries cover; WindowsRetained is the history depth.
	WindowsAggregated int `json:"windows_aggregated"`
	WindowsRetained   int `json:"windows_retained"`

	Shards    []ShardDoc    `json:"shards"`
	Scope     ScopeDoc      `json:"scope"`
	Ops       []OpDoc       `json:"ops"`
	Stages    []StageDoc    `json:"stages"`
	E2E       Quantiles     `json:"e2e"`
	SLO       SLODoc        `json:"slo"`
	Exemplars []ExemplarDoc `json:"exemplars,omitempty"`
	History   HistoryDoc    `json:"history"`
}

// quantiles summarizes an aggregated delta snapshot over secs seconds.
func quantiles(s *obs.HistogramSnapshot, secs float64) Quantiles {
	q := Quantiles{Count: s.Count, MaxNS: s.Max}
	if secs > 0 {
		q.RatePerSec = float64(s.Count) / secs
	}
	if s.Count > 0 {
		q.MeanNS = float64(s.Sum) / float64(s.Count)
		q.P50NS = s.Quantile(0.50)
		q.P95NS = s.Quantile(0.95)
		q.P99NS = s.Quantile(0.99)
		q.P999NS = s.Quantile(0.999)
		// Intra-bucket interpolation can land above the true observed max
		// (the top bucket spans up to 2× the largest value in it); the
		// exact max is tracked, so cap the tail quantiles there.
		if q.MaxNS > 0 {
			for _, p := range []*uint64{&q.P50NS, &q.P95NS, &q.P99NS, &q.P999NS} {
				if *p > q.MaxNS {
					*p = q.MaxNS
				}
			}
		}
	}
	return q
}

// BuildDoc aggregates the last `over` completed windows (clamped to
// what the ring retains; over<=0 means one window) into a Doc. Called
// off the hot path by the HTTP handler and tests; allocates freely.
func (c *Collector) BuildDoc(over int) *Doc {
	c.mu.Lock()
	defer c.mu.Unlock()

	d := &Doc{
		Version:      DocVersion,
		CapturedAtNS: c.cfg.NowNS(),
		IntervalNS:   int64(c.cfg.Interval),
		Seq:          c.pos,
	}
	d.UptimeNS = d.CapturedAtNS
	ret := c.retained()
	d.WindowsRetained = ret
	if ret == 0 {
		d.Shards = make([]ShardDoc, 0)
		d.Ops = make([]OpDoc, 0)
		d.Stages = make([]StageDoc, 0)
		return d
	}
	over = min(max(over, 1), ret)
	d.WindowsAggregated = over

	end, start := c.point(c.pos), c.point(c.pos-uint64(over))
	secs := float64(end.ns-start.ns) / 1e9
	var delta obs.HistogramSnapshot
	summarize := func(end, start *obs.HistogramSnapshot) Quantiles {
		end.DeltaSince(start, &delta)
		return quantiles(&delta, secs)
	}

	d.E2E = summarize(&end.e2e, &start.e2e)
	d.Ops = make([]OpDoc, len(c.ops))
	for i := range c.ops {
		d.Ops[i] = OpDoc{Op: c.ops[i].name, Quantiles: summarize(&end.ops[i], &start.ops[i])}
	}
	d.Stages = make([]StageDoc, len(c.stages))
	for i := range c.stages {
		d.Stages[i] = StageDoc{Stage: c.stages[i].name, Quantiles: summarize(&end.stages[i], &start.stages[i])}
		if d.E2E.P99NS > 0 {
			d.Stages[i].ShareP99 = float64(d.Stages[i].P99NS) / float64(d.E2E.P99NS)
		}
	}
	d.Shards = make([]ShardDoc, c.cfg.Shards)
	counts := make([]ShardSample, c.cfg.Shards)
	for i := range end.shards {
		g, a := &end.shards[i], &counts[i]
		*a = sampleSince(g, &start.shards[i])
		sd := ShardDoc{Shard: i, QueueLen: g.QueueLen, QueueCap: g.QueueCap}
		if g.LogCap > 0 {
			sd.LogOccupancy = float64(g.LogTail-g.LogHead) / float64(g.LogCap)
		}
		if secs > 0 {
			sd.ThroughputPerSec = float64(a.Requests) / secs
			sd.BatchesPerSec = float64(a.Batches) / secs
			sd.SavesPerSec = float64(a.Saves) / secs
			sd.TxnsPerSec = float64(a.Txns) / secs
			sd.LogAppendsPerSec = float64(a.LogAppends) / secs
			sd.LogTruncPerSec = float64(a.LogTruncated) / secs
			sd.FwbScansPerSec = float64(a.FwbScans) / secs
			sd.NVRAMBytesPerSec = float64(a.NVRAMWriteBytes) / secs
			sd.WrapRatePerSec = wraps(g, a.LogTail) / secs
		}
		d.Shards[i] = sd
	}
	d.Scope = buildScope(end.shards, counts, secs)
	sloTotal, sloBad := satSub(end.sloTotal, start.sloTotal), satSub(end.sloBad, start.sloBad)
	d.SLO = SLODoc{
		ObjectiveNS: c.cfg.SLOLatencyNS,
		Budget:      c.cfg.SLOBudget,
		Total:       sloTotal,
		Bad:         sloBad,
	}
	if sloTotal > 0 {
		d.SLO.BadFraction = float64(sloBad) / float64(sloTotal)
		d.SLO.BurnRate = d.SLO.BadFraction / c.cfg.SLOBudget
	}

	// Slowest exemplars across the aggregated windows, slowest first.
	exemplars := make([]Exemplar, 0, over*MaxExemplars)
	for k := 0; k < over; k++ {
		p := c.point(c.pos - uint64(k))
		exemplars = append(exemplars, p.exemplars[:p.exN]...)
	}
	sort.Slice(exemplars, func(a, b int) bool { return exemplars[a].LatNS > exemplars[b].LatNS })
	if len(exemplars) > maxDocExemplars {
		exemplars = exemplars[:maxDocExemplars]
	}
	for i := range exemplars {
		d.Exemplars = append(d.Exemplars, exemplarDoc(&exemplars[i]))
	}

	// History over every retained window, oldest first: window k is the
	// difference of adjacent points.
	d.History = HistoryDoc{
		WindowNS:         make([]int64, ret),
		ThroughputPerSec: make([]float64, ret),
		WrapRatePerSec:   make([]float64, ret),
		P99NS:            make([]uint64, ret),
		BurnRate:         make([]float64, ret),
	}
	for k := 0; k < ret; k++ {
		j := c.pos - uint64(ret-1-k)
		end, start := c.point(j), c.point(j-1)
		dur := end.ns - start.ns
		d.History.WindowNS[k] = dur
		wsecs := float64(dur) / 1e9
		var reqs uint64
		var wrapMax float64
		for i := range end.shards {
			g, s := &end.shards[i], &start.shards[i]
			reqs += satSub(g.Requests, s.Requests)
			wrapMax = max(wrapMax, wraps(g, satSub(g.LogTail, s.LogTail)))
		}
		if wsecs > 0 {
			d.History.ThroughputPerSec[k] = float64(reqs) / wsecs
			d.History.WrapRatePerSec[k] = wrapMax / wsecs
		}
		if end.e2e.DeltaSince(&start.e2e, &delta); delta.Count > 0 {
			d.History.P99NS[k] = delta.Quantile(0.99)
		}
		if total := satSub(end.sloTotal, start.sloTotal); total > 0 {
			d.History.BurnRate[k] = float64(satSub(end.sloBad, start.sloBad)) / float64(total) / c.cfg.SLOBudget
		}
	}
	return d
}

// buildScope derives the persistence-domain cost section from each
// shard's window counts and its gauges at the window's end.
func buildScope(ends, counts []ShardSample, secs float64) ScopeDoc {
	sc := ScopeDoc{Shards: make([]ScopeShardDoc, len(counts))}
	var totPayload, totLog, totWB, totUpdates, totCoalescible uint64
	for i := range counts {
		g, a := &ends[i], &counts[i]
		logBytes := a.LogUndoBytes + a.LogRedoBytes + a.LogHeaderBytes + a.LogChecksumBytes
		naturalWB := a.NaturalWB()
		wbBytes := (a.FwbForced + naturalWB) * mem.LineSize
		s := ScopeShardDoc{
			Shard:            i,
			LiveRecords:      g.LiveRecords,
			ReplayEstRecords: g.LiveRecords,
			WrapETASeconds:   -1,
			FullETASeconds:   -1,
		}
		if secs > 0 {
			s.PayloadBytesPerSec = float64(a.PayloadBytes) / secs
			s.LogBytesPerSec = float64(logBytes) / secs
			s.LogUndoBytesPerSec = float64(a.LogUndoBytes) / secs
			s.LogRedoBytesPerSec = float64(a.LogRedoBytes) / secs
			s.LogHeaderBytesPerSec = float64(a.LogHeaderBytes) / secs
			s.LogChecksumBytesPerSec = float64(a.LogChecksumBytes) / secs
			s.ForcedWBBytesPerSec = float64(a.FwbForced) * mem.LineSize / secs
			s.NaturalWBBytesPerSec = float64(naturalWB) * mem.LineSize / secs
		}
		if a.PayloadBytes > 0 {
			s.WriteAmp = float64(logBytes+wbBytes) / float64(a.PayloadBytes)
		}
		if a.TxnsMeasured > 0 {
			s.TxnWriteAmpMean = float64(a.TxnAmpMilliSum) / float64(a.TxnsMeasured) / 1000
		}
		if a.UpdateAppends > 0 {
			s.CoalescibleFraction = float64(a.CoalescibleAppends) / float64(a.UpdateAppends)
		}
		if a.FwbForced > 0 {
			s.WastedForcedFraction = float64(a.WastedForcedWB) / float64(a.FwbForced)
		}
		if a.FwbScans > 0 {
			s.FwbForcedPerScan = float64(a.FwbForced) / float64(a.FwbScans)
			s.FwbFlaggedPerScan = float64(a.FwbFlagged) / float64(a.FwbScans)
		}
		// Wrap forecast: seconds until the tail next crosses a capacity
		// boundary at this window's append rate (a.LogTail is the tail
		// advance); full forecast: seconds until free records run out at
		// the net append-minus-reclaim rate. Head/tail are monotonic
		// record sequence numbers.
		if secs > 0 && g.LogCap > 0 && a.LogTail > 0 {
			appendRate := float64(a.LogTail) / secs
			s.WrapETASeconds = float64(g.LogCap-g.LogTail%g.LogCap) / appendRate
			if net := appendRate - float64(a.LogHead)/secs; net > 0 {
				if free := g.LogCap - (g.LogTail - g.LogHead); free > 0 {
					s.FullETASeconds = float64(free) / net
				} else {
					s.FullETASeconds = 0
				}
			}
		}
		sc.Shards[i] = s
		totPayload += a.PayloadBytes
		totLog += logBytes
		totWB += wbBytes
		totUpdates += a.UpdateAppends
		totCoalescible += a.CoalescibleAppends
	}
	if secs > 0 {
		sc.PayloadBytesPerSec = float64(totPayload) / secs
		sc.LogBytesPerSec = float64(totLog) / secs
		sc.WBBytesPerSec = float64(totWB) / secs
	}
	if totPayload > 0 {
		sc.WriteAmp = float64(totLog+totWB) / float64(totPayload)
	}
	if totUpdates > 0 {
		sc.CoalescibleFraction = float64(totCoalescible) / float64(totUpdates)
	}
	return sc
}

// exemplarDoc flattens a retained span into the document form via the
// latency-stage decomposition (missing marks become -1).
func exemplarDoc(e *Exemplar) ExemplarDoc {
	var st [flight.NumLatStages]int64
	e.Span.StageDurations(&st)
	return ExemplarDoc{
		SpanID:  e.Span.ID,
		Op:      flight.OpName(e.Span.Op),
		Shard:   e.Span.Shard,
		Status:  e.Span.Status,
		LatNS:   e.LatNS,
		RouteNS: st[flight.LatRoute],
		QueueNS: st[flight.LatQueue],
		ApplyNS: st[flight.LatApply],
		FwbNS:   st[flight.LatFWB],
		AckNS:   st[flight.LatAck],
	}
}
