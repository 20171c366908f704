package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pmemlog/internal/flight"
)

// TestSpanEndToEndTimeline follows one spanned request through the
// whole pipeline: the slow-capture ring must retain its span with
// every stage timestamp, an attributed machine transaction, and a log
// window, and the dump's shard machine rings must reassemble its
// transaction's timeline (begin, log appends, commit) from the span tag.
func TestSpanEndToEndTimeline(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SlowThreshold = time.Nanosecond // tail-sample everything
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 10
	c.EnableSpans()
	if err := c.Put([]byte("traced-key"), []byte("traced-val")); err != nil {
		t.Fatal(err)
	}

	path := srv.FlightDumpPath()
	if err := srv.WriteFlightDump(path, "manual"); err != nil {
		t.Fatal(err)
	}
	d, err := flight.LoadDump(path)
	if err != nil {
		t.Fatal(err)
	}

	var sp *flight.SpanSnapshot
	for i := range d.Slow {
		if d.Slow[i].Op == OpPut {
			sp = &d.Slow[i]
		}
	}
	if sp == nil {
		t.Fatalf("no PUT span in the slow ring; slow=%d in-flight=%d", len(d.Slow), len(d.InFlight))
	}
	if sp.ID == 0 || sp.Shard < 0 || sp.Status != int(StatusOK) {
		t.Fatalf("span incomplete: %+v", sp)
	}
	if !(sp.RecvNS > 0 && sp.EnqueueNS >= sp.RecvNS && sp.ApplyNS >= sp.EnqueueNS && sp.AckNS >= sp.ApplyNS) {
		t.Fatalf("stage timestamps not monotonic: recv=%d enqueue=%d apply=%d ack=%d",
			sp.RecvNS, sp.EnqueueNS, sp.ApplyNS, sp.AckNS)
	}
	if sp.TxID == 0 || sp.TxCommitCyc == 0 {
		t.Fatalf("span has no attributed machine txn: %+v", sp)
	}
	if sp.LogLast <= sp.LogFirst {
		t.Fatalf("PUT appended no log records: window [%d,%d)", sp.LogFirst, sp.LogLast)
	}

	tl := d.Timeline(sp.ID)
	kinds := map[string]bool{}
	for _, e := range tl {
		kinds[e.Kind] = true
		if e.TxID != sp.TxID {
			t.Errorf("timeline event %+v belongs to txn %d, span's is %d", e, e.TxID, sp.TxID)
		}
		if want := fmt.Sprintf("shard %d/", sp.Shard); !strings.HasPrefix(d.RingNames[e.Ring], want) {
			t.Errorf("timeline event on ring %q, want one of %q", d.RingNames[e.Ring], want)
		}
	}
	for _, want := range []string{"tx-begin", "log-append", "tx-commit"} {
		if !kinds[want] {
			t.Errorf("timeline missing %s; kinds=%v", want, kinds)
		}
	}
}

// TestHealthz exercises the readiness endpoint: JSON body with
// per-shard queue and log-wrap pressure, 200 while serving.
func TestHealthz(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.HTTPAddr = "127.0.0.1:0"
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if srv.HTTPAddr() == "" {
		t.Fatal("HTTPAddr empty with HTTPAddr configured")
	}

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 10
	if err := c.Put([]byte("hk"), []byte("hv")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		OK       bool   `json:"ok"`
		Draining bool   `json:"draining"`
		Mode     string `json:"mode"`
		UptimeNS int64  `json:"uptime_ns"`
		Shards   []struct {
			Shard     int     `json:"shard"`
			QueueCap  int     `json:"queue_cap"`
			LogPass   uint64  `json:"log_pass"`
			Occupancy float64 `json:"log_occupancy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("healthz body unparsable: %v\n%s", err, body)
	}
	if !rep.OK || rep.Draining || rep.UptimeNS <= 0 {
		t.Fatalf("healthz not ready: %+v", rep)
	}
	if len(rep.Shards) != cfg.Shards {
		t.Fatalf("healthz shards = %d, want %d", len(rep.Shards), cfg.Shards)
	}
	for _, sh := range rep.Shards {
		if sh.QueueCap != cfg.QueueDepth {
			t.Fatalf("shard %d queue_cap = %d, want %d", sh.Shard, sh.QueueCap, cfg.QueueDepth)
		}
		if sh.Occupancy < 0 || sh.Occupancy > 1 {
			t.Fatalf("shard %d occupancy = %v", sh.Shard, sh.Occupancy)
		}
	}
}

// TestStatsFlightCounters checks the stats-surface satellites: tracer
// ring emit/drop counts and span-table counters appear in the snapshot
// and the Prometheus exposition.
func TestStatsFlightCounters(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SlowThreshold = time.Nanosecond
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 10
	c.EnableSpans()
	for i := 0; i < 8; i++ {
		if err := c.Put([]byte{byte('a' + i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// One thread ring plus one machine ring per shard machine.
	if len(snap.TracerRings) != 2*cfg.Shards {
		t.Fatalf("tracer_rings = %d, want %d", len(snap.TracerRings), 2*cfg.Shards)
	}
	if snap.TracerEmitted == 0 {
		t.Fatal("tracer_emitted = 0 after traffic")
	}
	if snap.SlowSpans == 0 {
		t.Fatal("slow_spans_captured = 0 with a 1ns threshold")
	}
	// The stats request is itself spanned and still unanswered while the
	// snapshot is taken, so exactly one span is in flight.
	if snap.SpanInFlight != 1 {
		t.Fatalf("spans_in_flight = %d, want 1 (the stats request itself)", snap.SpanInFlight)
	}

	expo, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pmserver_trace_emitted", "pmserver_trace_dropped",
		"pmserver_span_drops", "pmserver_spans_in_flight", "pmserver_slow_spans_captured",
	} {
		if !bytes.Contains(expo, []byte(want)) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestFlightDumpKillRecoveryAgreement is the acceptance test for the
// flight recorder: capture a dump while requests are genuinely in
// flight (transaction attributed, ack not yet sent), kill the server,
// and check the doctor's analysis reconstructs those requests'
// timelines with verdicts that agree with what recovery actually
// replays from the post-kill images.
func TestFlightDumpKillRecoveryAgreement(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Spanned writers hammer the server until told to stop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			c.MaxRetries = 50
			c.EnableSpans()
			val := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("w%d-%03d", w, i%40))
				val[0], val[1] = byte(w), byte(i)
				if err := c.Put(key, val); err != nil {
					return
				}
			}
		}(w)
	}

	// Keep dumping until a dump catches a span mid-pipeline with its
	// machine transaction already attributed (the post-apply, pre-ack
	// window — held open by the shard's durable save).
	path := srv.FlightDumpPath()
	var d *flight.Dump
	var caught []flight.SpanSnapshot
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if err := srv.WriteFlightDump(path, "kill-test"); err != nil {
			t.Fatal(err)
		}
		dd, err := flight.LoadDump(path)
		if err != nil {
			t.Fatal(err)
		}
		caught = caught[:0]
		for _, sp := range dd.InFlight {
			if sp.TxID != 0 && sp.Shard >= 0 {
				caught = append(caught, sp)
			}
		}
		if len(caught) > 0 {
			d = dd
			break
		}
	}
	if d == nil {
		close(stop)
		wg.Wait()
		srv.Shutdown()
		t.Fatal("no dump caught an in-flight span with an attributed txn in 20s")
	}

	srv.Kill()
	close(stop)
	wg.Wait()

	// Doctor the dump against the post-kill images.
	an, err := flight.Analyze(d, func(shard int) (io.ReadCloser, error) {
		for _, st := range d.ShardStates {
			if st.Shard == shard {
				return os.Open(st.ImagePath)
			}
		}
		return nil, fmt.Errorf("no image for shard %d", shard)
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := an.Findings()
	if len(findings) == 0 {
		t.Fatalf("analysis produced no findings for %d caught spans", len(caught))
	}
	timelines := 0
	for _, f := range findings {
		if !f.Agrees {
			t.Errorf("span %d txn %d: verdict %s disagrees with recovery (committed=%v uncommitted=%v)",
				f.Span.ID, f.Span.TxID, f.Verdict, f.RecoveryCommitted, f.RecoveryUncommitted)
		}
		if len(f.Timeline) > 0 {
			timelines++
		}
	}
	if !an.Agreement() {
		t.Fatal("flight-recorder verdicts disagree with the recovery replay")
	}
	if timelines == 0 {
		t.Fatal("no finding carried a reconstructed causal timeline")
	}

	// The dump's story must survive an actual restart too: the server
	// that re-attaches these images boots clean.
	cfg2 := testConfig(dir)
	srv2, err := Start(cfg2)
	if err != nil {
		t.Fatalf("restart after kill: %v", err)
	}
	srv2.Shutdown()
	t.Logf("caught %d in-flight spans; %d findings, %d with timelines", len(caught), len(findings), timelines)
}
