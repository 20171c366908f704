package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs/pulse"
)

// Pulse wiring: the server side of internal/obs/pulse. The collector
// samples each shard's published view on an interval ticker,
// the conn writers fold every finished spanned request into the stage
// and end-to-end histograms (and offer it to the tail-exemplar
// capture), and the HTTP listener serves the windowed document at
// /pulse.json — what pmctl top renders.

// initPulse builds the stage/e2e/SLO registry handles and the windowed
// collector. Called from Start after the shards exist; the ticker
// goroutine is launched alongside the shard loops.
func (s *Server) initPulse() {
	s.e2eHist = s.reg.Histogram("pmserver_e2e_latency_ns", "",
		"recv to ack latency of span-tracked data requests, nanoseconds")
	for i := 0; i < flight.NumLatStages; i++ {
		lbl := fmt.Sprintf("stage=%q", flight.LatStageName(i))
		s.stageHist[i] = s.reg.Histogram("pmserver_stage_latency_ns", lbl,
			"per-stage latency of span-tracked data requests, nanoseconds")
	}
	s.sloTotal = s.reg.Counter("pmserver_slo_requests_total", "",
		"span-tracked data requests measured against the latency objective")
	s.sloBad = s.reg.Counter("pmserver_slo_bad_total", "",
		"span-tracked data requests over the latency objective")
	s.pulseStop = make(chan struct{})
	c := pulse.New(pulse.Config{
		Interval:     s.cfg.PulseInterval,
		Windows:      s.cfg.PulseWindows,
		Shards:       s.cfg.Shards,
		SampleShard:  s.sampleShard,
		NowNS:        func() int64 { return int64(s.nowNS()) },
		SLOLatencyNS: int64(s.cfg.SLOLatency),
		SLOBudget:    s.cfg.SLOBudget,
	})
	for _, code := range dataOps {
		c.TrackOp(flight.OpName(code), s.opHist[code])
	}
	for i := 0; i < flight.NumLatStages; i++ {
		c.TrackStage(flight.LatStageName(i), s.stageHist[i])
	}
	c.TrackE2E(s.e2eHist)
	c.TrackSLO(s.sloTotal, s.sloBad)
	s.pulse = c
}

// Pulse exposes the windowed collector (tests and tooling tick it
// manually; the server's own ticker runs at Config.PulseInterval).
func (s *Server) Pulse() *pulse.Collector { return s.pulse }

// sampleShard hands the collector one shard's published view; it never
// waits on the shard loop.
func (s *Server) sampleShard(i int, out *pulse.ShardSample) {
	*out = s.shards[i].view()
}

// observeFinish folds one completed request into the latency series at
// its ack point (the response reaching the writer), offers it to the
// pulse exemplar capture, and releases its span. Only span-tracked data
// requests feed the e2e/stage/SLO series, so stage shares and the SLO
// burn are computed over the same population the exemplars come from.
// Hot path: allocation-free (the span snapshot is a stack scratch).
func (s *Server) observeFinish(cr *connReq) {
	if h := s.opHist[cr.code]; h != nil {
		h.Observe(uint64(time.Since(cr.start)))
		if sp := cr.span; sp != nil {
			ackNS := int64(s.nowNS())
			var snap flight.SpanSnapshot
			sp.SnapshotInto(&snap)
			snap.AckNS = ackNS
			if e2e := ackNS - snap.RecvNS; e2e > 0 {
				s.e2eHist.Observe(uint64(e2e))
				s.sloTotal.Inc()
				if e2e > int64(s.cfg.SLOLatency) {
					s.sloBad.Inc()
				}
				var st [flight.NumLatStages]int64
				snap.StageDurations(&st)
				for i, d := range st {
					if d >= 0 {
						s.stageHist[i].Observe(uint64(d))
					}
				}
			}
			s.pulse.NoteFinished(sp, cr.resp.Status, ackNS)
		}
	}
	// Finish recycles the span slot (and tail-samples slow requests), so
	// the span must not be touched after this.
	s.flight.Finish(cr.span, cr.resp.Status, int64(s.nowNS()))
	cr.span, cr.spanTag = nil, 0
}

// pulseJSON serves the windowed telemetry document. ?windows=N sets how
// many completed windows the summary aggregates (default 5).
func (s *Server) pulseJSON(w http.ResponseWriter, r *http.Request) {
	over := 5
	if v := r.URL.Query().Get("windows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "windows: want a positive integer", http.StatusBadRequest)
			return
		}
		over = n
	}
	d := s.pulse.BuildDoc(over)
	d.Addr = s.Addr()
	d.Mode = s.cfg.Mode.String()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(d)
}

// metricsHTTP serves the same Prometheus document as the OpMetrics wire
// op on the HTTP listener, for scrapers that speak HTTP only.
func (s *Server) metricsHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

// pulseGauges publishes the latest completed window as pmserver_pulse_*
// gauges so one /metrics scrape carries windowed rates and quantiles
// alongside the cumulative series. The registry stores int64: per-sec
// rates are rounded, fractions are scaled to _milli (×1000).
func (s *Server) pulseGauges(d *pulse.Doc) {
	set := func(name, labels, help string, v int64) {
		s.reg.Gauge(name, labels, help).Set(v)
	}
	set("pmserver_pulse_window_seq", "", "completed pulse windows since start", int64(d.Seq))
	set("pmserver_pulse_e2e_p50_ns", "", "windowed end-to-end p50, nanoseconds", int64(d.E2E.P50NS))
	set("pmserver_pulse_e2e_p99_ns", "", "windowed end-to-end p99, nanoseconds", int64(d.E2E.P99NS))
	set("pmserver_pulse_e2e_p999_ns", "", "windowed end-to-end p99.9, nanoseconds", int64(d.E2E.P999NS))
	set("pmserver_pulse_e2e_rate_milli", "", "windowed end-to-end completions per second, x1000", int64(d.E2E.RatePerSec*1000))
	set("pmserver_pulse_slo_burn_milli", "", "windowed SLO burn rate, x1000", int64(d.SLO.BurnRate*1000))
	for _, st := range d.Stages {
		lbl := fmt.Sprintf("stage=%q", st.Stage)
		set("pmserver_pulse_stage_p99_ns", lbl, "windowed per-stage p99, nanoseconds", int64(st.P99NS))
		set("pmserver_pulse_stage_share_milli", lbl, "stage p99 as a share of the e2e p99, x1000", int64(st.ShareP99*1000))
	}
	for _, op := range d.Ops {
		lbl := fmt.Sprintf("op=%q", op.Op)
		set("pmserver_pulse_op_p99_ns", lbl, "windowed per-op p99, nanoseconds", int64(op.P99NS))
		set("pmserver_pulse_op_rate_milli", lbl, "windowed per-op completions per second, x1000", int64(op.RatePerSec*1000))
	}
	for _, sd := range d.Shards {
		lbl := fmt.Sprintf("shard=\"%d\"", sd.Shard)
		set("pmserver_pulse_shard_throughput_milli", lbl, "windowed shard requests per second, x1000", int64(sd.ThroughputPerSec*1000))
		set("pmserver_pulse_shard_wrap_rate_milli", lbl, "windowed circular-log passes per second, x1000", int64(sd.WrapRatePerSec*1000))
		set("pmserver_pulse_shard_occupancy_milli", lbl, "live log window over capacity, x1000", int64(sd.LogOccupancy*1000))
		set("pmserver_pulse_shard_queue_len", lbl, "shard queue length at the last window close", int64(sd.QueueLen))
	}
}

// scopeGauges publishes the latest completed window's persistence-domain
// cost view as pmserver_scope_* gauges, beside the pulse gauges. Same
// conventions: rates rounded to int64, fractions/ratios scaled ×1000
// with a _milli suffix, ETAs in whole seconds (-1 = unknown).
func (s *Server) scopeGauges(d *pulse.Doc) {
	set := func(name, labels, help string, v int64) {
		s.reg.Gauge(name, labels, help).Set(v)
	}
	sc := &d.Scope
	set("pmserver_scope_write_amp_milli", "", "windowed NVRAM write amplification (log+WB over payload), x1000", int64(sc.WriteAmp*1000))
	set("pmserver_scope_payload_bytes_per_sec", "", "windowed application payload bytes per second", int64(sc.PayloadBytesPerSec))
	set("pmserver_scope_log_bytes_per_sec", "", "windowed NVRAM log bytes per second, all classes", int64(sc.LogBytesPerSec))
	set("pmserver_scope_wb_bytes_per_sec", "", "windowed NVRAM data write-back bytes per second", int64(sc.WBBytesPerSec))
	set("pmserver_scope_coalescible_milli", "", "fraction of update appends re-hitting a line their txn logged, x1000", int64(sc.CoalescibleFraction*1000))
	for i := range sc.Shards {
		sd := &sc.Shards[i]
		lbl := fmt.Sprintf("shard=\"%d\"", sd.Shard)
		set("pmserver_scope_shard_write_amp_milli", lbl, "windowed shard write amplification, x1000", int64(sd.WriteAmp*1000))
		set("pmserver_scope_shard_txn_write_amp_milli", lbl, "mean per-txn log-bytes over payload, x1000", int64(sd.TxnWriteAmpMean*1000))
		set("pmserver_scope_shard_payload_bytes_per_sec", lbl, "windowed shard payload bytes per second", int64(sd.PayloadBytesPerSec))
		set("pmserver_scope_shard_log_bytes_per_sec", lbl, "windowed shard log bytes per second", int64(sd.LogBytesPerSec))
		set("pmserver_scope_shard_log_undo_bytes_per_sec", lbl, "windowed log bytes paying for undo words, per second", int64(sd.LogUndoBytesPerSec))
		set("pmserver_scope_shard_log_redo_bytes_per_sec", lbl, "windowed log bytes paying for redo words, per second", int64(sd.LogRedoBytesPerSec))
		set("pmserver_scope_shard_log_header_bytes_per_sec", lbl, "windowed log bytes paying for headers and metadata, per second", int64(sd.LogHeaderBytesPerSec))
		set("pmserver_scope_shard_log_checksum_bytes_per_sec", lbl, "windowed log bytes paying for record checksums, per second", int64(sd.LogChecksumBytesPerSec))
		set("pmserver_scope_shard_forced_wb_bytes_per_sec", lbl, "windowed FWB-forced write-back bytes per second", int64(sd.ForcedWBBytesPerSec))
		set("pmserver_scope_shard_natural_wb_bytes_per_sec", lbl, "windowed eviction/flush write-back bytes per second", int64(sd.NaturalWBBytesPerSec))
		set("pmserver_scope_shard_coalescible_milli", lbl, "coalescible fraction of update appends, x1000", int64(sd.CoalescibleFraction*1000))
		set("pmserver_scope_shard_wasted_forced_milli", lbl, "fraction of forced write-backs re-dirtied before the next scan, x1000", int64(sd.WastedForcedFraction*1000))
		set("pmserver_scope_shard_fwb_forced_per_scan_milli", lbl, "lines forced out per FWB scan pass, x1000", int64(sd.FwbForcedPerScan*1000))
		set("pmserver_scope_shard_live_records", lbl, "records currently live in the circular log", int64(sd.LiveRecords))
		set("pmserver_scope_shard_replay_est_records", lbl, "estimated recovery replay cost in records", int64(sd.ReplayEstRecords))
		set("pmserver_scope_shard_wrap_eta_seconds", lbl, "forecast seconds until the next log wrap (-1 = unknown)", int64(sd.WrapETASeconds))
		set("pmserver_scope_shard_full_eta_seconds", lbl, "forecast seconds until the log runs out of free records (-1 = unknown)", int64(sd.FullETASeconds))
	}
}
