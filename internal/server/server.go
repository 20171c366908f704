package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pmemlog/internal/chaos"
	"pmemlog/internal/flight"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/sim"
	"pmemlog/internal/txn"
)

// Config describes a pmserver instance.
type Config struct {
	Addr string // TCP listen address, e.g. ":7070" or "127.0.0.1:0"
	Dir  string // data directory: per-shard DIMM images + manifest

	Shards     int      // worker shards (each owns one simulated machine)
	Mode       txn.Mode // logging design each shard runs (fwb by default)
	QueueDepth int      // per-shard bounded queue (backpressure beyond this)
	BatchMax   int      // max requests drained into one shard batch
	Buckets    uint64   // hash buckets per shard store

	// Per-shard simulated machine sizing. The defaults favor restart
	// speed over capacity; a real deployment scales NVRAMBytes up.
	NVRAMBytes uint64
	LogBytes   uint64
	L2Bytes    uint64

	RetryAfterMs uint32      // backpressure hint returned with StatusRetry
	Logger       *log.Logger // nil = log.Default()

	// ConnWindow caps the number of requests one connection may have in
	// flight (read but not yet answered). A pipelined client overlaps up
	// to this many requests; a synchronous client is unaffected.
	ConnWindow int

	// TraceEvents sets the event tracer's per-ring record count (one
	// ring per shard plus a network ring). Zero means the default: the
	// tracer is the flight recorder's black box and is always on, sized
	// modestly so an idle server pays only its preallocated rings.
	// Negative disables tracing entirely (benchmarking escape hatch).
	TraceEvents int

	// Flight recorder sizing. FlightSpans caps concurrently-tracked
	// request spans (table full = requests fly unrecorded, counted);
	// SlowSpans is the tail-sampling ring; SlowThreshold is the recv→ack
	// latency at or above which a finished span's full timeline is
	// retained. Zeros take defaults; SlowThreshold < 0 disables capture.
	FlightSpans   int
	SlowSpans     int
	SlowThreshold time.Duration

	// HTTPAddr, when non-empty, serves the operator HTTP surface
	// (/healthz readiness, /pulse.json live telemetry, /metrics) on a
	// plain HTTP listener (e.g. "127.0.0.1:8080").
	HTTPAddr string

	// Pulse telemetry (internal/obs/pulse): PulseInterval is the window
	// width the live collector ticks at (default 1s); PulseWindows is
	// how many completed windows the ring retains (default 64).
	PulseInterval time.Duration
	PulseWindows  int

	// Latency objective: SLOLatency is the end-to-end target (default
	// 20ms) and SLOBudget the allowed fraction of data requests over it
	// (default 0.001). /pulse.json reports burn rate against these.
	SLOLatency time.Duration
	SLOBudget  float64

	// Degraded-health thresholds, evaluated per shard over the latest
	// pulse window: /healthz stays 200 but reports status "degraded"
	// when the windowed wrap rate (log passes/sec) or the queue fill
	// fraction crosses these. Zeros take defaults (1.0 passes/sec,
	// 0.9 queue fill).
	DegradedWrapRate float64
	DegradedQueue    float64

	// Chaos, when non-nil, arms deterministic network-fault injection
	// (conn drops mid-window, delayed/duplicated acks, spurious retry
	// answers) and stamps the injection ledger into every flight dump.
	// Only chaos-aware construction (internal/chaos/campaign, cmd/pmchaos,
	// tests) may set it — pmlint's chaosonly rule rejects everything else.
	Chaos *chaos.Injector
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Mode == txn.NonPers {
		c.Mode = txn.FWB
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.Buckets == 0 {
		c.Buckets = 4096
	}
	if c.NVRAMBytes == 0 {
		c.NVRAMBytes = 8 << 20
	}
	if c.LogBytes == 0 {
		c.LogBytes = 256 << 10
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 256 << 10
	}
	if c.RetryAfterMs == 0 {
		c.RetryAfterMs = 5
	}
	if c.ConnWindow <= 0 {
		c.ConnWindow = 64
	}
	if c.TraceEvents == 0 {
		c.TraceEvents = 2048
	}
	if c.FlightSpans <= 0 {
		c.FlightSpans = 1024
	}
	if c.SlowSpans <= 0 {
		c.SlowSpans = 64
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 10 * time.Millisecond
	}
	if c.PulseInterval <= 0 {
		c.PulseInterval = time.Second
	}
	if c.PulseWindows <= 0 {
		c.PulseWindows = 64
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 20 * time.Millisecond
	}
	if c.SLOBudget <= 0 {
		c.SLOBudget = 0.001
	}
	if c.DegradedWrapRate <= 0 {
		c.DegradedWrapRate = 1.0
	}
	if c.DegradedQueue <= 0 {
		c.DegradedQueue = 0.9
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// manifest is the durable boot contract persisted next to the images: a
// restarting server must rebuild shards with identical geometry or the
// address map (and therefore every persisted pointer) would shift.
type manifest struct {
	Version    int      `json:"version"`
	Shards     int      `json:"shards"`
	Mode       txn.Mode `json:"mode"`
	Buckets    uint64   `json:"buckets"`
	NVRAMBytes uint64   `json:"nvram_bytes"`
	LogBytes   uint64   `json:"log_bytes"`
}

const manifestName = "pmserver.json"

// Server is a running pmserver instance.
type Server struct {
	cfg    Config
	ln     net.Listener
	shards []*shard

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	draining   atomic.Bool
	dead       chan struct{} // closed once shards can no longer answer
	shardsDead chan struct{} // closed once every shard loop has exited
	deadOnce   sync.Once
	stopOnce   sync.Once
	acceptWG   sync.WaitGroup
	connWG     sync.WaitGroup

	// Counters for the stats endpoint.
	accepted   atomic.Uint64
	requests   atomic.Uint64
	retries    atomic.Uint64
	crossShard atomic.Uint64

	// Observability (see metrics.go). The registry handles are created
	// once in initObs; the request path only touches the atomic handles.
	t0       time.Time
	reg      *obs.Registry
	tracer   *obs.Tracer
	opHist   map[byte]*obs.Histogram
	opCount  map[byte]*obs.Counter
	mRetries *obs.Counter

	// Pulse telemetry (see pulse_server.go): the windowed collector, the
	// stage/e2e histograms the conn writers fold finished spans into,
	// and the SLO counters. pulseStop ends the ticker goroutine.
	pulse     *pulse.Collector
	pulseStop chan struct{}
	stageHist [flight.NumLatStages]*obs.Histogram
	e2eHist   *obs.Histogram
	sloTotal  *obs.Counter
	sloBad    *obs.Counter

	// Flight recorder (see flight_server.go): the in-flight span table
	// and the optional /healthz HTTP listener. dumpMu serializes dump
	// writers (explicit calls racing the panic hook).
	flight *flight.Table
	httpLn net.Listener
	dumpMu sync.Mutex

	// chaosNet is the network-site fork of cfg.Chaos (nil when unarmed):
	// its RNG stream is independent of any sim-side stream, and its
	// count-based triggers stay schedule-deterministic across goroutines.
	chaosNet *chaos.Injector
}

// shardConfig builds one shard's machine configuration.
func shardConfig(c Config) sim.Config {
	cfg := sim.DefaultConfig(c.Mode, 1)
	cfg.NVRAMBytes = c.NVRAMBytes
	cfg.LogBytes = c.LogBytes
	cfg.Caches.L2.SizeBytes = c.L2Bytes
	// A shard machine runs indefinitely: bound the per-commit latency
	// sample buffer (sliding window) so the commit path neither grows
	// without limit nor allocates in steady state.
	cfg.TxnLatencySampleCap = 4096
	// Persisted images cannot be re-attached across a log_grow migration,
	// so growing is disabled; the log is sized for the small per-request
	// transactions the store issues.
	cfg.GrowReserveBytes = 0
	cfg.GrowFactor = 0
	return cfg
}

// Start boots (or re-attaches) every shard, then begins serving.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	// Adopt the persisted manifest when the data directory is live.
	manPath := filepath.Join(cfg.Dir, manifestName)
	if b, err := os.ReadFile(manPath); err == nil {
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("server: manifest %s: %w", manPath, err)
		}
		if m.Version != 1 {
			return nil, fmt.Errorf("server: manifest version %d unsupported", m.Version)
		}
		cfg.Shards, cfg.Mode, cfg.Buckets = m.Shards, m.Mode, m.Buckets
		cfg.NVRAMBytes, cfg.LogBytes = m.NVRAMBytes, m.LogBytes
	} else if os.IsNotExist(err) {
		if !cfg.Mode.Spec().Persistent {
			return nil, fmt.Errorf("server: mode %q gives no persistence guarantee; refusing to serve writes", cfg.Mode)
		}
		b, _ := json.MarshalIndent(manifest{
			Version: 1, Shards: cfg.Shards, Mode: cfg.Mode, Buckets: cfg.Buckets,
			NVRAMBytes: cfg.NVRAMBytes, LogBytes: cfg.LogBytes,
		}, "", "  ")
		tmp := manPath + ".tmp"
		if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, manPath); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	s := &Server{
		cfg:        cfg,
		conns:      make(map[net.Conn]struct{}),
		dead:       make(chan struct{}),
		shardsDead: make(chan struct{}),
		chaosNet:   cfg.Chaos.Fork("net"),
	}
	s.initObs()
	scfg := shardConfig(cfg)
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(i, scfg, cfg.Buckets, cfg.Dir, cfg.QueueDepth, cfg.BatchMax)
		if err != nil {
			return nil, err
		}
		sh.tracer, sh.nowNS = s.tracer, s.nowNS
		sh.onPanic = s.panicDump
		if cfg.TraceEvents > 0 {
			// Each shard machine records into its own black-box tracer
			// (thread + machine rings, cycle timestamps); a flight dump
			// merges these behind the server's request rings.
			sh.sys.AttachTracer(cfg.TraceEvents).Enable()
		}
		if sh.bootRep != nil {
			cfg.Logger.Printf("pmserver: shard %d re-attached %s: %d keys, %d log records scanned, %d txns redone, %d rolled back",
				i, sh.imgPath, sh.st.keys, sh.bootRep.EntriesScanned, len(sh.bootRep.Committed), len(sh.bootRep.Uncommitted))
		}
		s.shards = append(s.shards, sh)
	}

	s.initPulse()

	if cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			return nil, fmt.Errorf("server: http listener: %w", err)
		}
		s.httpLn = hln
		go s.serveHTTP(hln)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if s.httpLn != nil {
			s.httpLn.Close()
		}
		return nil, err
	}
	s.ln = ln
	for _, sh := range s.shards {
		go sh.loop()
	}
	go s.pulse.Run(s.pulseStop)
	s.acceptWG.Add(1)
	go s.acceptLoop()
	cfg.Logger.Printf("pmserver: serving on %s (%d shards, mode %s, dir %s)",
		ln.Addr(), cfg.Shards, cfg.Mode, cfg.Dir)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Dir returns the data directory holding the shard images.
func (s *Server) Dir() string { return s.cfg.Dir }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// connReq is the per-request state of one pipelined connection slot. All
// of its byte slices are scratch buffers recycled through connReqPool, so
// a connection in steady state reads, applies, and answers requests
// without per-request allocation.
type connReq struct {
	seq   uint32
	code  byte
	start time.Time
	body  []byte   // frame-body read buffer; req's Key/Val/Ops alias it
	req   Request  // decoded request (Ops capacity reused)
	resp  Response // filled by the shard or inline by the reader
	val   []byte   // GET value scratch; resp.Val aliases it
	enc   []byte   // response encode buffer: [4-byte len][body]
	sr    request  // shard queue envelope (points back at this connReq)

	// Flight-recorder state for spanned requests (wire Span != 0). span
	// is nil when the request is untraced or the table shed it; spanTag
	// still annotates the obs events either way.
	span    *flight.Span
	spanTag uint32
}

var connReqPool = sync.Pool{New: func() any { return new(connReq) }}

// handleConn serves one connection with pipelining: a reader decodes and
// routes up to ConnWindow requests into the shard queues while a writer
// streams completions back in completion order (responses carry the
// request's sequence number, so the client may not assume FIFO). The
// tokens channel bounds the in-flight window; every token taken by the
// reader is returned by the writer once the matching response is on the
// wire (or by the reader itself when a read fails before a request is
// created).
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(c)
	br := bufio.NewReader(c)
	window := s.cfg.ConnWindow
	out := make(chan *connReq, window)
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	writerDone := make(chan struct{})
	failed := make(chan struct{}) // closed by the writer on write error
	go s.connWriter(c, out, tokens, writerDone, failed)

	held := 0 // tokens the reader has acquired and not handed to a request
read:
	for {
		select {
		case <-tokens:
			held++
		case <-failed:
			break read
		case <-s.shardsDead:
			break read
		}
		cr := connReqPool.Get().(*connReq)
		body, err := ReadFrameInto(br, cr.body, MaxFrame)
		if err != nil {
			connReqPool.Put(cr)
			break read
		}
		cr.body = body[:len(body):cap(body)]
		derr := DecodeRequestInto(&cr.req, cr.body)
		cr.span, cr.spanTag = nil, 0
		if derr == nil {
			if cr.req.Span != 0 {
				cr.spanTag = flight.SpanTag(cr.req.Span)
				cr.span = s.flight.Acquire(cr.req.Span, cr.req.Code, int64(s.nowNS()))
			}
			if s.tracer.Enabled() {
				s.tracer.EmitSpan(s.netRing(), s.nowNS(), obs.KindSrvRecv, 0, uint64(cr.req.Code), cr.spanTag)
			}
		}
		cr.seq, cr.code, cr.start = cr.req.Seq, cr.req.Code, time.Now()
		if derr != nil {
			// A malformed frame means the stream may be desynchronized:
			// answer once (the frame's seq is unknowable, so Seq is 0),
			// then stop reading.
			cr.seq, cr.code = 0, 0
			cr.resp = Response{Status: StatusErr, Seq: 0, Err: derr.Error()}
			held--
			out <- cr
			break read
		}
		held--
		if !s.routeAsync(cr, out) {
			// Answered inline (retry/stats/metrics/validation): already on out.
			continue
		}
	}

	// Shutdown: reclaim the whole window so no shard (or the writer) still
	// references a connReq, then release the writer. If the shards died
	// mid-flight their unanswered tokens can never come back — shardsDead
	// is the escape hatch (shard loops have exited, so no send can race
	// the close of out).
	for held < window {
		select {
		case <-tokens:
			held++
		case <-s.shardsDead:
			close(out)
			<-writerDone
			return
		}
	}
	close(out)
	<-writerDone
}

// connWriter drains completed requests, encodes each response into the
// request's reusable buffer, and sends header+body with a single Write.
// After a write error it keeps draining (releasing tokens, recycling
// connReqs) so the reader and shards never block, but writes nothing more.
func (s *Server) connWriter(c net.Conn, out chan *connReq, tokens chan struct{}, done, failed chan struct{}) {
	defer close(done)
	wroteErr := false
	for cr := range out {
		// Latency series, SLO accounting, pulse exemplar offer, and span
		// release (see pulse_server.go).
		s.observeFinish(cr)
		if !wroteErr {
			if s.chaosNet.Hit(chaos.SiteConnDrop, uint64(cr.code)) {
				// Chaos: the connection dies mid-pipeline-window, before
				// this response frame leaves. The Write below fails, the
				// reader stops, and the client must reconnect and resend
				// everything unacked — any durability shortcut here shows
				// up as a lost or duplicated write in the audit.
				c.Close()
			}
			if delay, ok := s.chaosNet.HitArg(chaos.SiteDelayAck, uint64(cr.code)); ok {
				time.Sleep(time.Duration(delay))
			}
			buf := append(cr.enc[:0], 0, 0, 0, 0)
			buf = EncodeResponse(buf, &cr.resp)
			binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
			cr.enc = buf
			if _, err := c.Write(buf); err != nil {
				wroteErr = true
				close(failed)
			} else if s.chaosNet.Hit(chaos.SiteDupAck, uint64(cr.code)) {
				// Chaos: the ack frame goes out twice (a retransmit the
				// transport failed to suppress); the client must drop the
				// duplicate, not fail its pipeline.
				c.Write(buf)
			}
		}
		cr.resp = Response{}
		cr.req.Key, cr.req.Val = nil, nil
		connReqPool.Put(cr)
		tokens <- struct{}{}
	}
	if !wroteErr {
		close(failed)
	}
}

// routeAsync routes one decoded pipelined request. It returns true when
// the request was enqueued to a shard (the shard will deliver cr on out);
// false when it was answered inline (cr is already on out).
func (s *Server) routeAsync(cr *connReq, out chan *connReq) bool {
	req := &cr.req
	answer := func(resp Response) bool {
		resp.Seq = cr.seq
		resp.Span = req.Span
		cr.resp = resp
		out <- cr
		return false
	}
	s.requests.Add(1)
	if ctr := s.opCount[req.Code]; ctr != nil {
		ctr.Inc()
	}
	if s.draining.Load() {
		s.noteRetry()
		return answer(Response{Status: StatusRetry, RetryAfterMs: s.cfg.RetryAfterMs})
	}
	if req.Code == OpStats {
		return answer(s.statsResponse())
	}
	if req.Code == OpMetrics {
		return answer(s.metricsResponse())
	}
	if s.chaosNet.Hit(chaos.SiteSpuriousRetry, uint64(req.Code)) {
		// Chaos: answer a perfectly routable request with StatusRetry,
		// exercising the client's transparent resend path under no real
		// backpressure.
		s.noteRetry()
		return answer(Response{Status: StatusRetry, RetryAfterMs: s.cfg.RetryAfterMs})
	}

	var key []byte
	if req.Code == OpTxn {
		if len(req.Ops) == 0 {
			return answer(Response{Status: StatusOK})
		}
		key = req.Ops[0].Key
		home := ShardOf(key, len(s.shards))
		for _, op := range req.Ops[1:] {
			if ShardOf(op.Key, len(s.shards)) != home {
				s.crossShard.Add(1)
				return answer(Response{Status: StatusErr,
					Err: "cross-shard txn: all keys of a TXN must hash to one shard"})
			}
		}
	} else {
		key = req.Key
	}
	home := ShardOf(key, len(s.shards))
	sh := s.shards[home]
	// Finish with cr before the enqueue hands it to the shard: the shard
	// may answer and the conn writer recycle cr (and its span) before
	// tryEnqueue even returns — so the enqueue mark and trace event come
	// first, or the shard's apply and ack could be recorded ahead of them.
	// A refused request keeps both: it did reach the queue's door.
	if cr.span != nil {
		cr.span.SetShard(home)
		cr.span.Mark(flight.StageEnqueue, int64(s.nowNS()))
	}
	if s.tracer.Enabled() {
		s.tracer.EmitSpan(home, s.nowNS(), obs.KindSrvEnqueue, 0, uint64(req.Code), cr.spanTag)
	}
	cr.sr = request{req: req, pr: cr, out: out}
	if !sh.tryEnqueue(&cr.sr) {
		s.noteRetry()
		return answer(Response{Status: StatusRetry, RetryAfterMs: s.cfg.RetryAfterMs})
	}
	return true
}

// StatsSnapshot is the stats endpoint's JSON document.
type StatsSnapshot struct {
	Addr       string       `json:"addr"`
	Mode       txn.Mode     `json:"mode"`
	Shards     int          `json:"shards"`
	Draining   bool         `json:"draining"`
	Accepted   uint64       `json:"conns_accepted"`
	Requests   uint64       `json:"requests"`
	Retries    uint64       `json:"retries"`
	CrossShard uint64       `json:"cross_shard_rejects"`
	Keys       uint64       `json:"keys"`
	Txns       uint64       `json:"txns_committed"`
	LogAppends uint64       `json:"log_appends"`
	LogTrunc   uint64       `json:"log_truncated"`
	FwbScans   uint64       `json:"fwb_scans"`
	NVRAMBytes uint64       `json:"nvram_write_bytes"`
	ShardStats []ShardStats `json:"shard_stats"`

	// OpLatencies summarizes the per-op latency histograms (nanoseconds)
	// accumulated since server start, keyed by opcode name.
	OpLatencies map[string]obs.LatencySummary `json:"op_latencies,omitempty"`

	// Tracer ring accounting: silent event loss on the always-on black
	// box is itself a diagnostic, so emitted/dropped counts are surfaced
	// per ring (request rings first, then the network ring).
	TracerRings   []obs.RingStat `json:"tracer_rings,omitempty"`
	TracerEmitted uint64         `json:"tracer_emitted"`
	TracerDropped uint64         `json:"tracer_dropped"`

	// Flight-recorder span table accounting.
	SpanInFlight int    `json:"spans_in_flight"`
	SpanDrops    uint64 `json:"span_drops"`
	SlowSpans    uint64 `json:"slow_spans_captured"`
}

// Stats gathers a consistent-enough snapshot: each shard answers a probe
// between batches, so its counters are internally consistent.
func (s *Server) Stats() (StatsSnapshot, error) {
	snap := StatsSnapshot{
		Addr:       s.Addr(),
		Mode:       s.cfg.Mode,
		Shards:     len(s.shards),
		Draining:   s.draining.Load(),
		Accepted:   s.accepted.Load(),
		Requests:   s.requests.Load(),
		Retries:    s.retries.Load(),
		CrossShard: s.crossShard.Load(),
	}
	snap.OpLatencies = make(map[string]obs.LatencySummary, len(s.opHist))
	for code, h := range s.opHist {
		if h.Count() > 0 {
			snap.OpLatencies[flight.OpName(code)] = h.Summary()
		}
	}
	snap.TracerRings = s.tracer.RingStats()
	for _, rs := range snap.TracerRings {
		snap.TracerEmitted += rs.Emitted
		snap.TracerDropped += rs.Dropped
	}
	snap.SpanInFlight = s.flight.InFlightCount()
	snap.SpanDrops = s.flight.Drops()
	snap.SlowSpans = s.flight.SlowCaptured()
	probes := make([]chan ShardStats, len(s.shards))
	for i, sh := range s.shards {
		probes[i] = make(chan ShardStats, 1)
		if !sh.tryEnqueue(&request{stats: probes[i]}) {
			return snap, fmt.Errorf("server: shard %d queue full", i)
		}
	}
	for _, ch := range probes {
		select {
		case st := <-ch:
			snap.ShardStats = append(snap.ShardStats, st)
			snap.Keys += st.Keys
			snap.Txns += st.Run.Transactions
			snap.LogAppends += st.Run.LogAppends
			snap.LogTrunc += st.Run.LogTruncated
			snap.FwbScans += st.Run.FwbScans
			snap.NVRAMBytes += st.Run.NVRAMWriteBytes
		case <-s.dead:
			return snap, fmt.Errorf("server: shutting down")
		}
	}
	return snap, nil
}

func (s *Server) statsResponse() Response {
	snap, err := s.Stats()
	if err != nil {
		s.noteRetry()
		return Response{Status: StatusRetry, RetryAfterMs: s.cfg.RetryAfterMs}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return Response{Status: StatusErr, Err: err.Error()}
	}
	return Response{Status: StatusOK, Val: b}
}

// Shutdown drains gracefully: new requests are rejected with StatusRetry,
// queued requests are answered, every shard takes a final image save, and
// open connections are then closed. Safe to call once; Kill afterwards is
// a no-op.
func (s *Server) Shutdown() error {
	var err error
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		close(s.pulseStop)
		s.ln.Close()
		if s.httpLn != nil {
			s.httpLn.Close()
		}
		s.acceptWG.Wait()
		for _, sh := range s.shards {
			close(sh.stop)
		}
		for _, sh := range s.shards {
			<-sh.done
		}
		s.deadOnce.Do(func() { close(s.dead) })
		close(s.shardsDead)
		s.closeConns()
		s.connWG.Wait()
		s.cfg.Logger.Printf("pmserver: drained and stopped")
	})
	return err
}

// Kill is the hard-stop analogue of pulling the plug mid-traffic: the
// listener and shard loops stop immediately, no final save is taken, and
// unanswered requests error out (they were never acked). The on-disk
// images keep whatever the last completed batch persisted.
func (s *Server) Kill() {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		close(s.pulseStop)
		s.ln.Close()
		if s.httpLn != nil {
			s.httpLn.Close()
		}
		for _, sh := range s.shards {
			close(sh.kill)
		}
		s.deadOnce.Do(func() { close(s.dead) })
		s.acceptWG.Wait()
		for _, sh := range s.shards {
			<-sh.done
		}
		close(s.shardsDead)
		s.closeConns()
		s.connWG.Wait()
		s.cfg.Logger.Printf("pmserver: killed (no final save)")
	})
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Keys reports the number of live keys per shard via stats probes (test
// and tooling convenience).
func (s *Server) Keys() (uint64, error) {
	snap, err := s.Stats()
	if err != nil {
		return 0, err
	}
	return snap.Keys, nil
}
