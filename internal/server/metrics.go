package server

import (
	"bytes"
	"fmt"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/pulse"
)

// Observability wiring for the server: a metrics registry answering
// OpMetrics in Prometheus text exposition format, per-op latency
// histograms, and (when Config.TraceEvents > 0) an event tracer whose
// rings follow the request path — receive on the network ring, then
// enqueue/apply/ack on the owning shard's ring. Trace timestamps are
// nanoseconds since server start, so a captured server trace feeds the
// same Chrome trace_event exporter as a simulator trace (with -ghz 1 a
// "cycle" is one nanosecond).

// dataOps are the opcodes that get latency histograms and per-op
// request counters; introspection opcodes are excluded so scraping the
// server does not perturb the series being scraped.
var dataOps = []byte{OpGet, OpPut, OpDel, OpTxn}

// initObs builds the registry handles and (optionally) the tracer.
// Called once from Start before any request can arrive.
func (s *Server) initObs() {
	s.t0 = time.Now()
	s.reg = obs.NewRegistry()
	s.opHist = make(map[byte]*obs.Histogram, len(dataOps))
	s.opCount = make(map[byte]*obs.Counter, len(dataOps))
	for _, code := range dataOps {
		lbl := fmt.Sprintf("op=%q", flight.OpName(code))
		s.opHist[code] = s.reg.Histogram("pmserver_op_latency_ns", lbl,
			"request latency from dispatch to response, nanoseconds")
		s.opCount[code] = s.reg.Counter("pmserver_requests_total", lbl,
			"requests dispatched by opcode")
	}
	s.mRetries = s.reg.Counter("pmserver_retries_total", "",
		"requests answered with backpressure (queue full or draining)")
	if s.cfg.TraceEvents > 0 {
		// Ring i = shard i; the last ring is the shared network ring.
		// The tracer doubles as the flight recorder's black box, so it
		// is created and recording from the first request; Disable/Enable
		// still work for explicit capture windows (pmctl trace workflows).
		s.tracer = obs.NewTracer(s.cfg.Shards+1, s.cfg.TraceEvents)
		s.tracer.Enable()
	}
	thresholdNS := s.cfg.SlowThreshold.Nanoseconds()
	if thresholdNS < 0 {
		thresholdNS = 0 // capture disabled
	}
	s.flight = flight.NewTable(s.cfg.FlightSpans, s.cfg.SlowSpans, thresholdNS)
}

// nowNS is the trace clock: nanoseconds since server start.
func (s *Server) nowNS() uint64 { return uint64(time.Since(s.t0)) }

// Tracer exposes the server's event tracer; nil unless Config.TraceEvents
// was set. Enable it, drive traffic, then Snapshot — the events slot into
// obs.WriteChromeTrace with TracerRingNames for labels.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// TracerRingNames labels the tracer rings for trace export.
func (s *Server) TracerRingNames() []string {
	names := make([]string, s.cfg.Shards+1)
	for i := 0; i < s.cfg.Shards; i++ {
		names[i] = fmt.Sprintf("shard %d", i)
	}
	names[s.cfg.Shards] = "network"
	return names
}

// netRing is the tracer ring shared by connection goroutines.
func (s *Server) netRing() int { return s.cfg.Shards }

// metricsResponse renders the Prometheus text-format document answered
// to OpMetrics: gauges set at render time (machine counters, tracer and
// span accounting, the latest pulse window) beside the request-path
// counters and latency histograms, which are live registry handles
// updated on the request path.
func (s *Server) metricsResponse() Response {
	s.viewGauges()
	set := s.setGauge
	for i, rs := range s.tracer.RingStats() {
		name := "network"
		if i < s.cfg.Shards {
			name = fmt.Sprintf("shard-%d", i)
		}
		lbl := fmt.Sprintf("ring=%q", name)
		set("pmserver_trace_emitted", lbl, "trace events emitted into this ring since start", rs.Emitted)
		set("pmserver_trace_dropped", lbl, "trace events overwritten before any snapshot read them", rs.Dropped)
	}
	set("pmserver_span_drops", "", "requests not span-tracked because the flight table was full", s.flight.Drops())
	set("pmserver_spans_in_flight", "", "request spans currently in flight", uint64(s.flight.InFlightCount()))
	set("pmserver_slow_spans_captured", "", "slow-request span snapshots retained by tail sampling", s.flight.SlowCaptured())
	if d := s.pulse.BuildDoc(1); d.WindowsAggregated > 0 {
		s.pulseGauges(d)
		s.scopeGauges(d)
	}
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		return Response{Status: StatusErr, Err: err.Error()}
	}
	return Response{Status: StatusOK, Val: buf.Bytes()}
}

// setGauge sets one render-time gauge, registering it on first use.
func (s *Server) setGauge(name, labels, help string, v uint64) {
	s.reg.Gauge(name, labels, help).Set(int64(v))
}

// viewGauges sets the machine-level gauges (keys, txns, log traffic,
// per-shard queue/batches/saves) from each shard's published view — the
// same values /pulse.json, /healthz and a flight dump read, and never a
// probe that a full or wedged shard queue could refuse.
func (s *Server) viewGauges() {
	set := s.setGauge
	set("pmserver_connections_accepted", "", "TCP connections accepted since start", s.accepted.Load())
	set("pmserver_cross_shard_rejects", "", "TXN batches rejected for spanning shards", s.crossShard.Load())
	var sum pulse.ShardSample
	for _, sh := range s.shards {
		v := sh.view()
		sum.Keys += v.Keys
		sum.Txns += v.Txns
		sum.LogAppends += v.LogAppends
		sum.LogTruncated += v.LogTruncated
		sum.FwbScans += v.FwbScans
		sum.NVRAMWriteBytes += v.NVRAMWriteBytes
		lbl := fmt.Sprintf("shard=\"%d\"", sh.id)
		set("pmserver_shard_queue_len", lbl, "requests waiting in the shard queue", uint64(v.QueueLen))
		set("pmserver_shard_batches", lbl, "request batches executed", v.Batches)
		set("pmserver_shard_saves", lbl, "atomic image saves taken", v.Saves)
	}
	set("pmserver_keys", "", "live keys across all shards", sum.Keys)
	set("pmserver_txns_committed", "", "transactions committed on the simulated machines", sum.Txns)
	set("pmserver_log_appends", "", "undo+redo log records appended", sum.LogAppends)
	set("pmserver_log_truncated", "", "log records reclaimed by truncation", sum.LogTruncated)
	set("pmserver_fwb_scans", "", "force write-back scans completed", sum.FwbScans)
	set("pmserver_nvram_write_bytes", "", "bytes written to simulated NVRAM", sum.NVRAMWriteBytes)
}

// noteRetry bumps both the snapshot counter and the metrics series.
func (s *Server) noteRetry() {
	s.retries.Add(1)
	s.mRetries.Inc()
}
