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
	d := s.pulseDoc(over)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(d)
}

// pulseDoc builds the windowed document over the last `over` windows,
// stamped with this server's address and mode.
func (s *Server) pulseDoc(over int) *pulse.Doc {
	d := s.pulse.BuildDoc(over)
	d.Addr = s.Addr()
	d.Mode = s.cfg.Mode.String()
	return d
}

// metricsHTTP serves the same Prometheus document as the OpMetrics wire
// op on the HTTP listener, for scrapers that speak HTTP only. It carries
// no windowed series: a scraper computes its own windows from the
// cumulative ones, and the server's windows are /pulse.json.
func (s *Server) metricsHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}
