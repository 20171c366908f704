package server

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs"
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
// OpMetrics reply, HTTP /metrics and a flight dump all carry: the
// registry's cumulative series (request counters, latency histograms —
// live handles updated on the request path), then the gauges computed
// here at render time, written straight to w: the machine counters each
// shard's published view carries (the same values /pulse.json, /healthz,
// the stats document and a flight dump read), and the tracer and span
// accounting. Rendering writes no shared state and none of it waits on
// a shard loop, so scrapes run concurrently and a dump of a wedged or
// panicking shard renders it too. Windowed rates live in /pulse.json.
func (s *Server) writeMetrics(w io.Writer) error {
	if err := s.reg.WritePrometheus(w); err != nil {
		return err
	}
	g := obs.GaugeWriter{W: w}
	one := func(name, help string, v uint64) { g.Gauge(name, help, obs.Sample{Value: v}) }
	one("pmserver_connections_accepted", "TCP connections accepted since start", s.accepted.Load())
	one("pmserver_cross_shard_rejects", "TXN batches rejected for spanning shards", s.crossShard.Load())
	views, sum := s.views()
	queued, batches, saves := make([]obs.Sample, len(views)), make([]obs.Sample, len(views)), make([]obs.Sample, len(views))
	for i, sh := range s.shards {
		lbl, v := fmt.Sprintf("shard=\"%d\"", sh.id), &views[i]
		queued[i] = obs.Sample{Labels: lbl, Value: uint64(v.QueueLen)}
		batches[i] = obs.Sample{Labels: lbl, Value: v.Batches}
		saves[i] = obs.Sample{Labels: lbl, Value: v.Saves}
	}
	g.Gauge("pmserver_shard_queue_len", "requests waiting in the shard queue", queued...)
	g.Gauge("pmserver_shard_batches", "request batches executed", batches...)
	g.Gauge("pmserver_shard_saves", "atomic image saves taken", saves...)
	one("pmserver_keys", "live keys across all shards", sum.Keys)
	one("pmserver_txns_committed", "transactions committed on the simulated machines", sum.Txns)
	one("pmserver_log_appends", "undo+redo log records appended", sum.LogAppends)
	one("pmserver_log_truncated", "log records reclaimed by truncation", sum.LogTruncated)
	one("pmserver_fwb_scans", "force write-back scans completed", sum.FwbScans)
	one("pmserver_nvram_write_bytes", "bytes written to simulated NVRAM", sum.NVRAMWriteBytes)

	names, rings := s.traceRings()
	emitted, dropped := make([]obs.Sample, len(rings)), make([]obs.Sample, len(rings))
	for i, rs := range rings {
		lbl := fmt.Sprintf("ring=%q", strings.ReplaceAll(names[i], " ", "-"))
		emitted[i] = obs.Sample{Labels: lbl, Value: rs.Emitted}
		dropped[i] = obs.Sample{Labels: lbl, Value: rs.Dropped}
	}
	g.Gauge("pmserver_trace_emitted", "trace events emitted into this ring since start", emitted...)
	g.Gauge("pmserver_trace_dropped", "trace events overwritten before any snapshot read them", dropped...)
	one("pmserver_span_drops", "requests not span-tracked because the flight table was full", s.flight.Drops())
	one("pmserver_spans_in_flight", "request spans currently in flight", uint64(s.flight.InFlightCount()))
	one("pmserver_slow_spans_captured", "slow-request span snapshots retained by tail sampling", s.flight.SlowCaptured())
	return g.Err
}

// metricsResponse answers OpMetrics with writeMetrics' document.
func (s *Server) metricsResponse() Response {
	var buf bytes.Buffer
	if err := s.writeMetrics(&buf); err != nil {
		return Response{Status: StatusErr, Err: err.Error()}
	}
	return Response{Status: StatusOK, Val: buf.Bytes()}
}

// noteRetry bumps both the snapshot counter and the metrics series.
func (s *Server) noteRetry() {
	s.retries.Add(1)
	s.mRetries.Inc()
}
