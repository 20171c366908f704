package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs/pulse"
)

// metricValue extracts one unlabelled series from a Prometheus text
// document.
func metricValue(t *testing.T, doc, name string) uint64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatalf("series %s missing from:\n%s", name, doc)
	}
	v, _ := strconv.ParseUint(m[1], 10, 64)
	return v
}

// TestOneSourceOfTruth: once traffic quiesces, every surface that
// reports a shard's machine counters reports the same numbers — the
// stats probe, /metrics, /healthz, a flight dump and the published view
// all derive from one value per shard.
func TestOneSourceOfTruth(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.LogBytes = 8 << 10 // small log: the pass counter moves
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := DialPipelined(srv.Addr(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 64
	for i := 0; i < 400; i++ {
		if err := c.Put([]byte(fmt.Sprintf("truth-%03d", i%150)), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}

	// The probe is itself a batch, so take it first: nothing moves after.
	snap, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	views := make([]pulse.ShardSample, cfg.Shards)
	var sum pulse.ShardSample
	for i, sh := range srv.shards {
		v := sh.view()
		views[i] = v
		st := snap.ShardStats[i]
		if v.Txns != st.Run.Transactions || v.LogAppends != st.Run.LogAppends ||
			v.NVRAMWriteBytes != st.Run.NVRAMWriteBytes || v.Keys != st.Keys ||
			v.Requests != st.Requests || v.Batches != st.Batches || v.Saves != st.Saves {
			t.Fatalf("shard %d: view %+v disagrees with stats probe %+v", i, v, st)
		}
		if v.Txns == 0 || v.LogAppends == 0 || v.Keys == 0 {
			t.Fatalf("shard %d saw no traffic: %+v", i, v)
		}
		sum.Txns += v.Txns
		sum.LogAppends += v.LogAppends
		sum.NVRAMWriteBytes += v.NVRAMWriteBytes
		sum.Keys += v.Keys
	}
	if snap.Txns != sum.Txns || snap.LogAppends != sum.LogAppends ||
		snap.NVRAMBytes != sum.NVRAMWriteBytes || snap.Keys != sum.Keys {
		t.Fatalf("stats totals %+v disagree with summed views %+v", snap, sum)
	}

	checkMetrics := func(where, doc string) {
		t.Helper()
		for name, want := range map[string]uint64{
			"pmserver_txns_committed":    sum.Txns,
			"pmserver_log_appends":       sum.LogAppends,
			"pmserver_nvram_write_bytes": sum.NVRAMWriteBytes,
			"pmserver_keys":              sum.Keys,
		} {
			if got := metricValue(t, doc, name); got != want {
				t.Fatalf("%s: %s = %d, views say %d", where, name, got, want)
			}
		}
	}
	code, body := httpGet(t, "http://"+srv.HTTPAddr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	checkMetrics("/metrics", string(body))

	var wrapped bool
	logPass := func(v pulse.ShardSample) uint64 {
		st := flight.ShardState{LogHead: v.LogHead, LogTail: v.LogTail, LogCap: v.LogCap}
		return st.Pass()
	}
	_, body = httpGet(t, "http://"+srv.HTTPAddr()+"/healthz")
	var rep healthReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	for i, hs := range rep.Shards {
		if hs.LogPass != logPass(views[i]) {
			t.Fatalf("/healthz shard %d log_pass %d, view says %d", i, hs.LogPass, logPass(views[i]))
		}
		wrapped = wrapped || hs.LogPass > 0
	}
	if !wrapped {
		t.Fatal("no shard log wrapped; the pass comparison checked nothing")
	}

	path := filepath.Join(t.TempDir(), "dump.json")
	if err := srv.WriteFlightDump(path, "test"); err != nil {
		t.Fatal(err)
	}
	d, err := flight.LoadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics("flight dump", d.Metrics)
	for i, st := range d.ShardStates {
		v := views[i]
		if st.LogHead != v.LogHead || st.LogTail != v.LogTail || st.LogCap != v.LogCap || st.Pass() != logPass(v) {
			t.Fatalf("flight dump shard %d log state %+v, view says %+v", i, st, v.Snapshot)
		}
	}
}

// TestMetricsNeverProbesShards: a scrape reads published views, so it
// answers even when a shard queue is full (the old stats-probe path
// answered StatusRetry).
func TestMetricsNeverProbesShards(t *testing.T) {
	srv, err := Start(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	before := srv.shards[0].view().Batches
	if resp := srv.metricsResponse(); resp.Status != StatusOK {
		t.Fatalf("metrics: %+v", resp)
	}
	if after := srv.shards[0].view().Batches; after != before {
		t.Fatalf("scrape ran %d shard batch(es)", after-before)
	}
}

// TestViewNeverTorn is the publish property test (run under -race): a
// reader spinning on view() while a tiny-log PUT workload wraps must
// always see one batch's state — head ≤ tail ≤ head+cap — and monotone
// request counts.
func TestViewNeverTorn(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	cfg.LogBytes = 4 << 10
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var torn error
	var reads int
	go func() {
		defer wg.Done()
		var lastReq, lastTail uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := srv.shards[0].view()
			reads++
			switch {
			case v.LogHead > v.LogTail || v.LogTail > v.LogHead+v.LogCap:
				torn = fmt.Errorf("log window torn: head=%d tail=%d cap=%d", v.LogHead, v.LogTail, v.LogCap)
			case v.Requests < lastReq || v.LogTail < lastTail:
				torn = fmt.Errorf("view went backwards: requests %d→%d, tail %d→%d", lastReq, v.Requests, lastTail, v.LogTail)
			case v.Txns < v.Requests:
				torn = fmt.Errorf("requests %d ahead of txns %d: counters from different batches", v.Requests, v.Txns)
			}
			if torn != nil {
				return
			}
			lastReq, lastTail = v.Requests, v.LogTail
		}
	}()

	c, err := DialPipelined(srv.Addr(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 64
	val := []byte("0123456789abcdef0123456789abcdef")
	for i := 0; i < 600; i++ {
		if err := c.Put([]byte(fmt.Sprintf("torn-%02d", i%40)), val); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if torn != nil {
		t.Fatalf("after %d reads: %v", reads, torn)
	}
	v := srv.shards[0].view()
	if v.LogTail/v.LogCap == 0 {
		t.Fatalf("log never wrapped (tail %d, cap %d): the property was not exercised", v.LogTail, v.LogCap)
	}
}

// TestSpannedPipelineRace drives spanned pipelined GETs, the traffic
// that lets a shard answer — and the conn writer recycle the connReq and
// its span — while routeAsync is still returning from the enqueue.
// Meaningful under -race: touching the request after the enqueue is a
// data race. The tracer is off and the span table held full on purpose:
// ring-cursor atomics and a tracked span's atomic marks hand the race
// detector a happens-before edge that hides the bug in most
// interleavings, while an untraced, table-shed span leaves it bare.
func TestSpannedPipelineRace(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.TraceEvents = -1
	cfg.FlightSpans = 1
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if srv.flight.Acquire(1, OpGet, 1) == nil {
		t.Fatal("could not pin the span table's only slot")
	}

	const conns, ops = 2, 2000
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialPipelined(srv.Addr(), 16)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.MaxRetries = 64
			c.EnableSpans()
			calls := make([]*Call, 0, 16)
			for i := 0; i < ops; i++ {
				call, err := c.GetAsync([]byte(fmt.Sprintf("race-%d-%d", w, i%8)))
				if err != nil {
					errs <- err
					return
				}
				if calls = append(calls, call); len(calls) == cap(calls) || i == ops-1 {
					for _, call := range calls {
						if _, err := call.Wait(); err != nil {
							errs <- err
							return
						}
						call.Release()
					}
					calls = calls[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
