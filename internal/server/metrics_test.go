package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pmemlog/internal/flight"
)

// driveTraffic issues a representative request mix through one client.
func driveTraffic(t *testing.T, c *Client, puts int) {
	t.Helper()
	for i := 0; i < puts; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := c.Put(k, []byte("value")); err != nil {
			t.Fatal(err)
		}
		if _, found, err := c.Get(k); err != nil || !found {
			t.Fatalf("get %q: found=%v err=%v", k, found, err)
		}
	}
	if found, err := c.Del([]byte("key-000")); err != nil || !found {
		t.Fatalf("del: found=%v err=%v", found, err)
	}
	if err := c.Txn(sameShardOps(t, 2, 3)); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint is the acceptance test for the metrics surface:
// OpMetrics answers Prometheus text exposition format including per-op
// latency histogram series, and the stats snapshot carries the matching
// quantile summaries.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := Start(testConfig(t.TempDir()))
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

	driveTraffic(t, c, 20)

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	body := string(text)
	for _, want := range []string{
		"# TYPE pmserver_op_latency_ns histogram",
		`pmserver_op_latency_ns_bucket{op="put",le="+Inf"}`,
		`pmserver_op_latency_ns_sum{op="get"}`,
		`pmserver_op_latency_ns_count{op="txn"}`,
		"# TYPE pmserver_requests_total counter",
		`pmserver_requests_total{op="get"}`,
		"# TYPE pmserver_txns_committed gauge",
		"pmserver_log_appends",
		"pmserver_nvram_write_bytes",
		`pmserver_shard_queue_len{shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", body)
		t.FailNow()
	}

	// Every line must be a comment or `series value` — the format a
	// Prometheus scraper would accept.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	put, ok := snap.OpLatencies["put"]
	if !ok || put.Count < 20 {
		t.Fatalf("op_latencies[put] = %+v (ok=%v), want count >= 20", put, ok)
	}
	if put.P50 == 0 || put.Max < put.P50 || put.P99 < put.P50 {
		t.Fatalf("implausible put latency summary: %+v", put)
	}
	if _, ok := snap.OpLatencies["get"]; !ok {
		t.Fatal("op_latencies missing get")
	}
}

// TestMetricsCountersMonotonic scrapes twice and checks the request
// counters moved with traffic.
func TestMetricsCountersMonotonic(t *testing.T) {
	srv, err := Start(testConfig(t.TempDir()))
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

	counter := func(body, series string) uint64 {
		for _, line := range strings.Split(body, "\n") {
			var v uint64
			if n, _ := fmt.Sscanf(line, series+" %d", &v); n == 1 {
				return v
			}
		}
		t.Fatalf("series %q not found in:\n%s", series, body)
		return 0
	}
	series := `pmserver_requests_total{op="put"}`

	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	m1, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	before := counter(string(m1), series)
	for i := 0; i < 5; i++ {
		if err := c.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if after := counter(string(m2), series); after != before+5 {
		t.Fatalf("put counter %d -> %d, want +5", before, after)
	}
}

// TestServerSpanStages checks the request-path record: every data
// request's span passes recv, enqueue, apply, fwb, durable and ack in
// that order, and with a 1 ns threshold the slow ring retains all of
// them.
func TestServerSpanStages(t *testing.T) {
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
	driveTraffic(t, c, 10)

	// 10 puts + 10 gets + 1 del + 1 txn = 22 data requests; stats and
	// metrics opcodes were not issued.
	slow := srv.flight.Slow()
	if len(slow) != 22 {
		t.Fatalf("slow ring holds %d spans, want 22", len(slow))
	}
	for _, sp := range slow {
		stages := []int64{sp.RecvNS, sp.EnqueueNS, sp.ApplyNS, sp.FwbNS, sp.DurableNS, sp.AckNS}
		for i, ns := range stages {
			if ns == 0 || (i > 0 && ns < stages[i-1]) {
				t.Fatalf("span %d (%s) stages not non-zero and ordered: %v", sp.ID, flight.OpName(sp.Op), stages)
			}
		}
	}
}

// TestConcurrentScrapes releases every reader of the metrics document at
// once on fresh servers: the OpMetrics reply, HTTP /metrics and a flight
// dump, each goroutine running all three from a different start. Under
// -race, any write the render path makes to state another scrape reads
// (a series registered on first scrape, say) reports a data race.
func TestConcurrentScrapes(t *testing.T) {
	const servers, scrapers = 20, 4
	for n := 0; n < servers; n++ {
		cfg := testConfig(t.TempDir())
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.PulseInterval = time.Hour // the window below is closed by hand
		srv, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Pulse().Tick()
		url := "http://" + srv.HTTPAddr() + "/metrics"
		scrape := []func() error{
			func() error {
				if resp := srv.metricsResponse(); resp.Status != StatusOK {
					return fmt.Errorf("OpMetrics: %+v", resp)
				}
				return nil
			},
			func() error {
				resp, err := http.Get(url)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if _, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
					return fmt.Errorf("/metrics: status %d, %v", resp.StatusCode, err)
				}
				return nil
			},
			func() error {
				if d := srv.buildDump("scrape"); d.Metrics == "" {
					return fmt.Errorf("dump carries no metrics document")
				}
				return nil
			},
		}
		release := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < scrapers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release
				for i := range scrape {
					if err := scrape[(g+i)%len(scrape)](); err != nil {
						t.Errorf("server %d scraper %d: %v", n, g, err)
					}
				}
			}()
		}
		close(release)
		wg.Wait()
		// One HELP/TYPE group per name, whichever writer rendered it.
		groups := map[string]int{}
		for _, line := range strings.Split(string(srv.metricsResponse().Val), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				groups[strings.Fields(rest)[0]]++
			}
		}
		for name, k := range groups {
			if k != 1 {
				t.Errorf("%s has %d TYPE groups", name, k)
			}
		}
		srv.Shutdown()
	}
}
