package server

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/pulse"
)

// Observability wiring for the server: a metrics registry answering
// OpMetrics in Prometheus text exposition format, per-op latency
// histograms, and the accounting of the shard machines' event tracers
// (attached in Start when Config.TraceEvents > 0). A request's path
// through the server is recorded once, as its flight span; the tracer
// rings hold only machine events, in cycles, tagged with that span.

// dataOps are the opcodes that get latency histograms and per-op
// request counters; introspection opcodes are excluded so scraping the
// server does not perturb the series being scraped.
var dataOps = []byte{OpGet, OpPut, OpDel, OpTxn}

// initObs builds the registry handles and the span table. Called once
// from Start before any request can arrive.
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
	thresholdNS := s.cfg.SlowThreshold.Nanoseconds()
	if thresholdNS < 0 {
		thresholdNS = 0 // capture disabled
	}
	s.flight = flight.NewTable(s.cfg.FlightSpans, s.cfg.SlowSpans, thresholdNS)
}

// nowNS is the span clock: nanoseconds since server start.
func (s *Server) nowNS() uint64 { return uint64(time.Since(s.t0)) }

// traceRings lists every shard machine's tracer rings in dump order —
// shard 0's thread and machine rings first — with their labels. Both
// are empty when tracing is off.
func (s *Server) traceRings() (names []string, rings []obs.RingStat) {
	for _, sh := range s.shards {
		mt := sh.sys.Tracer()
		if mt == nil {
			continue
		}
		for _, name := range sh.sys.TracerRingNames() {
			names = append(names, fmt.Sprintf("shard %d/%s", sh.id, name))
		}
		rings = append(rings, mt.RingStats()...)
	}
	return names, rings
}

// writeMetrics renders the one Prometheus text-format document the
// OpMetrics reply, HTTP /metrics and a flight dump all carry: gauges set
// at render time (machine counters, tracer and span accounting, the
// latest pulse window) beside the request-path counters and latency
// histograms, which are live registry handles updated on the request
// path. None of it waits on a shard loop, so a dump of a wedged or
// panicking shard renders it too.
func (s *Server) writeMetrics(w io.Writer) error {
	s.viewGauges()
	set := s.setGauge
	names, rings := s.traceRings()
	for i, rs := range rings {
		lbl := fmt.Sprintf("ring=%q", strings.ReplaceAll(names[i], " ", "-"))
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
	return s.reg.WritePrometheus(w)
}

// metricsResponse answers OpMetrics with writeMetrics' document.
func (s *Server) metricsResponse() Response {
	var buf bytes.Buffer
	if err := s.writeMetrics(&buf); err != nil {
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
