package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"pmemlog/internal/flight"
)

// Flight-recorder surface of the server: assembling the black-box dump
// (shard machine trace rings, metrics registry, shard queue/log
// pressure, in-flight and slow span tables) and the /healthz readiness
// endpoint. The dump path must work while the process is dying — it
// reads only atomics and the shards' published views, never enqueues to
// a possibly-dead shard.

// FlightDumpPath is where panic/SIGTERM dumps land: next to the shard
// images, so pmctl doctor finds both halves of the evidence together.
func (s *Server) FlightDumpPath() string {
	return filepath.Join(s.cfg.Dir, "flight-dump.json")
}

// WriteFlightDump snapshots the flight recorder to path. Safe to call
// at any time, including concurrently with live traffic (span and ring
// snapshots tolerate racing requests) and from the panic hook.
func (s *Server) WriteFlightDump(path, reason string) error {
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()
	return flight.WriteDump(path, s.buildDump(reason))
}

// buildDump assembles the dump document without touching a shard loop.
func (s *Server) buildDump(reason string) *flight.Dump {
	d := &flight.Dump{
		Reason:       reason,
		CapturedAtNS: time.Now().UnixNano(),
		UptimeNS:     int64(s.nowNS()),
		Addr:         s.Addr(),
		Mode:         s.cfg.Mode.String(),
		Shards:       s.cfg.Shards,
		SpanDrops:    s.flight.Drops(),
		SlowCaptured: s.flight.SlowCaptured(),
		InFlight:     s.flight.InFlight(),
		Slow:         s.flight.Slow(),
		Chaos:        s.cfg.Chaos.Ledger(),
	}
	d.RingNames, d.RingStats = s.traceRings()
	// The same document /metrics serves, rendered without waiting on a
	// shard that may be wedged or mid-panic (see writeMetrics).
	var buf bytes.Buffer
	if err := s.writeMetrics(&buf); err == nil {
		d.Metrics = buf.String()
	}
	// Each shard machine's events (tx begin/commit, log appends,
	// cache/controller events — cycle timestamps) follow the previous
	// shard's, ring indices offset to match traceRings.
	base := 0
	for _, sh := range s.shards {
		d.ShardStates = append(d.ShardStates, sh.flightState())
		if mt := sh.sys.Tracer(); mt != nil {
			evs := flight.ConvertEvents(mt.Snapshot())
			for i := range evs {
				evs[i].Ring += base
			}
			d.Events = append(d.Events, evs...)
			base += mt.Rings()
		}
	}
	return d
}

// panicDump is the shard loops' crash hook: best-effort dump, then the
// panic continues (set up in Start).
func (s *Server) panicDump() {
	path := s.FlightDumpPath()
	if err := s.WriteFlightDump(path, "panic"); err != nil {
		s.cfg.Logger.Printf("pmserver: flight dump failed: %v", err)
		return
	}
	s.cfg.Logger.Printf("pmserver: flight dump written to %s", path)
}

// HTTPAddr returns the bound /healthz listener address, "" when the
// HTTP surface is disabled.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// healthShard is one shard's slice of the readiness report.
type healthShard struct {
	Shard     int     `json:"shard"`
	Attached  bool    `json:"attached"` // re-attached a persisted image at boot
	QueueLen  int     `json:"queue_len"`
	QueueCap  int     `json:"queue_cap"`
	LogPass   uint64  `json:"log_pass"`      // circular-log wrap count
	Occupancy float64 `json:"log_occupancy"` // live window / capacity
}

// healthReport is the /healthz JSON body. Status is "ok", "degraded"
// (still serving — HTTP 200 — but a windowed pressure threshold fired;
// Reasons says which), or "draining" (HTTP 503).
type healthReport struct {
	OK       bool          `json:"ok"`
	Status   string        `json:"status"`
	Reasons  []string      `json:"reasons,omitempty"`
	Draining bool          `json:"draining"`
	Mode     string        `json:"mode"`
	UptimeNS int64         `json:"uptime_ns"`
	Shards   []healthShard `json:"shards"`
}

// serveHTTP runs the operator HTTP listener until it is closed.
func (s *Server) serveHTTP(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/pulse.json", s.pulseJSON)
	mux.HandleFunc("/metrics", s.metricsHTTP)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	srv.Serve(ln)
}

// healthz answers readiness from published state only (no shard probe):
// 200 while serving, 503 once draining. Wrap pressure per shard comes
// from the loop-published log pointers, the same view a dump captures;
// the degraded gate reads the pulse collector's latest completed window
// (a sustained view — a single busy batch cannot flap health), and
// before the first window closes the server is simply "ok".
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	rep := healthReport{
		OK:       !s.draining.Load(),
		Status:   "ok",
		Draining: s.draining.Load(),
		Mode:     s.cfg.Mode.String(),
		UptimeNS: int64(s.nowNS()),
	}
	if rep.Draining {
		rep.Status = "draining"
	}
	for _, sh := range s.shards {
		st := sh.flightState()
		rep.Shards = append(rep.Shards, healthShard{
			Shard:     sh.id,
			Attached:  sh.bootRep != nil,
			QueueLen:  st.QueueLen,
			QueueCap:  st.QueueCap,
			LogPass:   st.Pass(),
			Occupancy: st.Occupancy(),
		})
		if rep.Draining {
			continue
		}
		if wrap, queueFrac, ok := s.pulse.ShardPressure(sh.id); ok {
			if wrap > s.cfg.DegradedWrapRate {
				rep.Status = "degraded"
				rep.Reasons = append(rep.Reasons, fmt.Sprintf(
					"shard %d: log wrap rate %.2f passes/s over threshold %.2f (reclamation pressure)",
					sh.id, wrap, s.cfg.DegradedWrapRate))
			}
			if queueFrac > s.cfg.DegradedQueue {
				rep.Status = "degraded"
				rep.Reasons = append(rep.Reasons, fmt.Sprintf(
					"shard %d: queue %.0f%% full over threshold %.0f%%",
					sh.id, 100*queueFrac, 100*s.cfg.DegradedQueue))
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !rep.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(rep)
}
