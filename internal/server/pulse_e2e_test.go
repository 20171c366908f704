package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs/pulse"
)

// httpGet fetches one operator-endpoint body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// TestPulseEndToEnd drives spanned traffic through a live server, closes
// a pulse window, and checks the whole telemetry chain: /pulse.json
// carries per-shard throughput, windowed op and stage quantiles whose
// p99 shares account for the end-to-end p99, SLO accounting, and at
// least one tail exemplar that resolves to a span in a flight dump.
func TestPulseEndToEnd(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.PulseInterval = time.Hour // windows closed manually
	cfg.SlowThreshold = time.Nanosecond
	cfg.SlowSpans = 256 // tail-sample every request without wrapping
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
	for i := 0; i < 64; i++ {
		key := []byte{byte('a' + i%26), byte(i)}
		if err := c.Put(key, []byte("pulse-val")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	srv.Pulse().Tick()

	code, body := httpGet(t, "http://"+srv.HTTPAddr()+"/pulse.json?windows=1")
	if code != http.StatusOK {
		t.Fatalf("pulse.json status %d: %s", code, body)
	}
	var d pulse.Doc
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("pulse.json unparsable: %v\n%s", err, body)
	}
	if d.Version != pulse.DocVersion || d.Seq == 0 || d.Addr == "" || d.Mode == "" {
		t.Fatalf("doc header: version=%d seq=%d addr=%q mode=%q", d.Version, d.Seq, d.Addr, d.Mode)
	}

	// Per-shard throughput: every request landed on some shard.
	if len(d.Shards) != cfg.Shards {
		t.Fatalf("shards = %d, want %d", len(d.Shards), cfg.Shards)
	}
	var tput float64
	for _, sd := range d.Shards {
		tput += sd.ThroughputPerSec
		if sd.QueueCap != cfg.QueueDepth {
			t.Fatalf("shard %d queue_cap = %d", sd.Shard, sd.QueueCap)
		}
	}
	if tput <= 0 {
		t.Fatalf("no windowed throughput: %+v", d.Shards)
	}

	// Windowed op series: put and get both completed in this window.
	opCount := map[string]uint64{}
	for _, op := range d.Ops {
		opCount[op.Op] = op.Count
	}
	if opCount["put"] != 64 || opCount["get"] != 64 {
		t.Fatalf("windowed op counts: %+v", opCount)
	}

	// Stage waterfall: every latency stage saw every spanned request,
	// and the per-stage p99s account for the end-to-end p99 (each span's
	// stages sum exactly to its recv→ack latency, so the quantile-space
	// shares land near 1.0 — bucket interpolation keeps them honest).
	if d.E2E.Count == 0 || d.E2E.P99NS == 0 {
		t.Fatalf("no windowed e2e series: %+v", d.E2E)
	}
	if len(d.Stages) != flight.NumLatStages {
		t.Fatalf("stages = %d, want %d", len(d.Stages), flight.NumLatStages)
	}
	var shareSum float64
	for _, st := range d.Stages {
		if st.Count == 0 {
			t.Fatalf("stage %q saw no requests: %+v", st.Stage, d.Stages)
		}
		shareSum += st.ShareP99
	}
	if shareSum < 0.5 || shareSum > 2.0 {
		t.Fatalf("stage p99 shares sum to %.2f of the e2e p99 (stages: %+v)", shareSum, d.Stages)
	}

	// SLO accounting covers the spanned data requests.
	if d.SLO.Total != 128 || d.SLO.ObjectiveNS != int64(20*time.Millisecond) {
		t.Fatalf("slo: %+v", d.SLO)
	}

	// At least one tail exemplar, resolvable to a flight-dump span.
	if len(d.Exemplars) == 0 {
		t.Fatal("no tail exemplars captured")
	}
	dumpPath := srv.FlightDumpPath()
	if err := srv.WriteFlightDump(dumpPath, "test"); err != nil {
		t.Fatal(err)
	}
	dump, err := flight.LoadDump(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	ex := d.Exemplars[0]
	if ex.SpanID == 0 || ex.LatNS <= 0 {
		t.Fatalf("exemplar incomplete: %+v", ex)
	}
	found := false
	for i := range dump.Slow {
		if dump.Slow[i].ID == ex.SpanID {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplar span %d not in the flight dump's slow ring (%d spans)", ex.SpanID, len(dump.Slow))
	}

	// History trend arrays cover the retained windows.
	if len(d.History.WindowNS) != d.WindowsRetained || d.WindowsRetained == 0 {
		t.Fatalf("history: %+v", d.History)
	}

	// /metrics carries the cumulative series the windows are cut from.
	code, body = httpGet(t, "http://"+srv.HTTPAddr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if series := "pmserver_op_latency_ns_count"; !strings.Contains(string(body), series) {
		t.Fatalf("metrics missing %s:\n%s", series, body)
	}

	// Bad windows parameter is a 400, not a panic or a silent default.
	if code, _ = httpGet(t, "http://"+srv.HTTPAddr()+"/pulse.json?windows=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus windows param: status %d", code)
	}
}

// TestHealthzDegraded exercises both degraded transitions: a window
// with log-wrap pressure over threshold flips /healthz to 200/degraded
// with a reason naming the shard, and a following calm window flips it
// back to ok.
func TestHealthzDegraded(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.PulseInterval = time.Hour  // windows closed manually
	cfg.DegradedWrapRate = 0.00001 // any log movement in a window trips it
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	type report struct {
		OK      bool     `json:"ok"`
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	health := func() (int, report) {
		code, body := httpGet(t, "http://"+srv.HTTPAddr()+"/healthz")
		var rep report
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("healthz unparsable: %v\n%s", err, body)
		}
		return code, rep
	}

	// Before the first window closes there is no windowed evidence:
	// healthy, not degraded.
	if code, rep := health(); code != http.StatusOK || rep.Status != "ok" || !rep.OK {
		t.Fatalf("pre-window health: %d %+v", code, rep)
	}

	// A burst of writes advances the log inside the next window.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 10
	for i := 0; i < 32; i++ {
		if err := c.Put([]byte{byte(i)}, []byte("wrap-pressure")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Pulse().Tick()
	code, rep := health()
	if code != http.StatusOK {
		t.Fatalf("degraded must stay 200 (still serving): %d", code)
	}
	if rep.Status != "degraded" || !rep.OK || len(rep.Reasons) == 0 {
		t.Fatalf("expected degraded with reasons: %+v", rep)
	}
	if !strings.Contains(rep.Reasons[0], "wrap rate") {
		t.Fatalf("reason does not name wrap pressure: %q", rep.Reasons[0])
	}

	// A calm window (no log movement) clears the state.
	srv.Pulse().Tick()
	if code, rep := health(); code != http.StatusOK || rep.Status != "ok" || len(rep.Reasons) != 0 {
		t.Fatalf("post-calm health: %d %+v", code, rep)
	}
}
