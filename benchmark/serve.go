package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/server"
	"pmemlog/internal/txn"
)

// serveMode is the logging design every serving segment runs: hwl, not the
// server's default fwb. At this commit an fwb shard returns stale data once
// its working set outgrows the 32 KiB L1: cache.Hierarchy.FwbScan writes a
// dirty L1 line back and cleans it without refreshing the L2's older copy
// (Hierarchy.Flush does refresh it), so after the clean L1 line is dropped
// the next load hits the stale L2 line. The correctness gate catches it on
// every workload here (lost keys after ~270 inserts per shard). hwl is the
// same hardware undo+redo logging with clwb at commit instead of the
// scanner, and never takes that path. README "Why hwl" has the details.
const serveMode = txn.HWL

// phases sizes one serving run. The contract run uses fullPhases scaled to
// --seconds; -short and the tests use smokePhases.
type phases struct {
	warm     time.Duration // unmeasured lead-in of every timed segment
	measure  time.Duration // untraced measured window
	traced   time.Duration // traced measured window (trace runs)
	slice    time.Duration // ops_per_s is the median over slices this long
	burst    time.Duration // write burst the server is killed under
	setups   int           // boot+preload repetitions; setup_s is their median...
	setupFor time.Duration // ...and a cheap set-up is repeated until this much time is spent
	restarts int           // kill/restart cycles...
	reattach int           // ...each timing this many restarts; restart_s is the median of all
	// Wall-clock caps. Every repetition count above is a target for a machine
	// at its usual speed; on a shared host that is having a slow spell (8x
	// has been seen) a phase stops repeating once its cap is spent, after at
	// least one repetition, so that a run's length stays bounded. 0 = no cap.
	setupCap    time.Duration
	restartCap  time.Duration // all cycles together
	reattachCap time.Duration // one cycle's restarts
	pulse       time.Duration // server PulseInterval of a traced run
	layerReps   int           // repetitions of the image/attach timings
	wireOps     int           // requests replayed through the wire codec
}

func fullPhases(seconds float64, trace bool) phases {
	d := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	p := phases{
		warm: 2 * time.Second, measure: d(seconds), slice: 2 * time.Second,
		burst: 500 * time.Millisecond, setups: 3, setupFor: time.Second, restarts: 5, reattach: 20,
		setupCap: 4 * time.Second, restartCap: 6 * time.Second, reattachCap: 500 * time.Millisecond,
		pulse: time.Second,
	}
	if trace {
		// The traced run yields the per-layer table only: its untraced
		// window exists to price the spans, so it is the part to shorten.
		p.warm, p.measure, p.traced = time.Second, d(seconds/2), d(seconds*2/3)
		p.setups, p.setupFor, p.restarts, p.layerReps, p.wireOps = 1, 0, 2, 9, 100000
	}
	return p
}

// smokePhases is the -short plan: about one unit per phase. -short uses 1 s;
// the tests go lower. The pulse window shrinks with it so that the traced
// window still completes a few.
func smokePhases(unit time.Duration, trace bool) phases {
	p := phases{
		warm: unit, measure: unit, slice: unit / 2, burst: unit / 5,
		setups: 1, restarts: 2, reattach: 1, pulse: unit,
	}
	if trace {
		p.traced, p.layerReps, p.wireOps = 5*unit/2, 3, 10000
	}
	return p
}

// snapshot is the counter state at one edge of a measured window.
type snapshot struct {
	at      time.Time
	stats   server.StatsSnapshot
	cpu     time.Duration // getrusage user+sys
	ioBytes uint64        // /proc/self/io write_bytes
	logPass uint64        // /healthz log_pass summed over shards (HTTP on only)
}

type servingRun struct {
	name  string
	spec  serveSpec
	seed  int64
	ph    phases
	trace bool
	dir   string // scratch parent; every server instance gets a subdirectory
	fault string // self-test: "verify" corrupts the ledger before the read-back
	// outDir receives the trace file; telemetryOff adds the extra run that
	// prices the always-on telemetry (trace runs only).
	outDir       string
	telemetryOff bool
	unspanned    bool // tests: no client spans in the traced window

	ks   *keyspace
	vers *versions
	srv  *server.Server

	e2e        map[string]metricValue // unit is filled in from the catalogue
	layer      map[string]float64
	tracedRate float64 // ops/s of the spanned window
	attempted  uint64
	failed     uint64
	failures   []string
	traceFile  string
}

func (r *servingRun) config(dir string, telemetryOff bool) server.Config {
	cfg := server.Config{
		Addr: "127.0.0.1:0", Dir: dir, Shards: numShards, Mode: serveMode,
		LogBytes: r.spec.logBytes,
		Logger:   log.New(io.Discard, "", 0),
	}
	if r.trace {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.PulseInterval = r.ph.pulse
	}
	if telemetryOff {
		cfg.TraceEvents, cfg.SlowThreshold = -1, -1
	}
	return cfg
}

func (r *servingRun) note(res *segResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.failures = append(r.failures, res.failures...)
}

func (r *servingRun) segment() *segment {
	return &segment{addr: r.srv.Addr(), ks: r.ks, spec: r.spec, vers: r.vers}
}

// bootAndPreload starts a server on a fresh directory and writes every key
// once. It returns the preload's write latencies.
func (r *servingRun) bootAndPreload(telemetryOff bool) (*segResult, error) {
	dir, err := os.MkdirTemp(r.dir, r.name+"-")
	if err != nil {
		return nil, err
	}
	r.ks = newKeyspace(r.seed, r.spec.keys)
	r.vers = newVersions(r.spec.keys)
	if r.srv, err = server.Start(r.config(dir, telemetryOff)); err != nil {
		return nil, err
	}
	sg := r.segment()
	sg.source = preloadSource
	res, err := sg.run()
	if err != nil {
		return nil, err
	}
	r.note(res)
	return res, nil
}

// discard kills the current server and deletes its directory.
func (r *servingRun) discard() {
	if r.srv != nil {
		r.srv.Kill()
		os.RemoveAll(r.srv.Dir())
		r.srv = nil
	}
}

func (r *servingRun) snap() snapshot {
	s := snapshot{at: time.Now()}
	var err error
	if s.stats, err = r.srv.Stats(); err != nil {
		r.failed++
		r.failures = append(r.failures, "stats: "+err.Error())
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.ioBytes = procIOWriteBytes()
	if addr := r.srv.HTTPAddr(); addr != "" {
		var rep struct {
			Shards []struct {
				LogPass uint64 `json:"log_pass"`
			} `json:"shards"`
		}
		if err := getJSON("http://"+addr+"/healthz", &rep); err == nil {
			for _, sh := range rep.Shards {
				s.logPass += sh.LogPass
			}
		}
	}
	return s
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// procIOWriteBytes reads write_bytes from /proc/self/io: bytes this
// process caused to be sent to the storage layer. 0 when unavailable.
func procIOWriteBytes() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		var n uint64
		if _, err := fmt.Sscanf(line, "write_bytes: %d", &n); err == nil {
			return n
		}
	}
	return 0
}

// timed runs one timed segment. With snaps set, the counters are sampled at
// both edges of its measured window.
func (r *servingRun) timed(length time.Duration, spans bool, snaps *[2]snapshot) (*segResult, error) {
	sg := r.segment()
	sg.warm, sg.length, sg.spans = r.ph.warm, length, spans
	sg.slices = max(int(length/r.ph.slice), 1)
	if snaps != nil {
		sg.atMeasure = func(open bool) {
			if open {
				snaps[0] = r.snap()
			} else {
				snaps[1] = r.snap()
			}
		}
	}
	res, err := sg.run()
	if err == nil {
		r.note(res)
	}
	return res, err
}

// restartCycle kills the server (under a write burst when the workload
// writes), then restarts it on the same directory reattach times over,
// timing each server.Start→first GET answered: every one of them loads and
// recovers the image the kill left. Last, it reads every key back and
// checks it against the ledger.
func (r *servingRun) restartCycle() (downtimes []float64, readBack *segResult, err error) {
	if r.spec.hasWrites() {
		sg := r.segment()
		sg.killed = true
		burst := make(chan *segResult, 1)
		go func() {
			res, _ := sg.run()
			burst <- res
		}()
		time.Sleep(r.ph.burst)
		r.srv.Kill()
		// The burst's connections die with the server; let them finish
		// before the clock starts, so they do not compete with the restart.
		if res := <-burst; res != nil {
			r.note(res)
		}
	}
	dir := r.srv.Dir()
	for i, begin := 0, time.Now(); i < r.ph.reattach && !(i > 0 && capped(time.Since(begin), r.ph.reattachCap)); i++ {
		r.srv.Kill()
		// Start from a collected heap, as a freshly exec'd server would: what
		// the previous instance left behind is not this restart's cost.
		runtime.GC()
		t0 := time.Now()
		if r.srv, err = server.Start(r.config(dir, false)); err != nil {
			return nil, nil, fmt.Errorf("restart: %w", err)
		}
		c, err := server.Dial(r.srv.Addr())
		if err != nil {
			return nil, nil, err
		}
		_, found, err := c.Get(r.ks.names[0])
		downtimes = append(downtimes, time.Since(t0).Seconds())
		c.Close()
		if err != nil || !found {
			return nil, nil, fmt.Errorf("first GET after restart: found=%v err=%v", found, err)
		}
	}
	if r.fault == "verify" {
		// Self-test: claim an ack the server never gave.
		r.vers.acked[1].Store(r.vers.next[1].Add(1) - 1)
		r.fault = ""
	}
	sg := r.segment()
	sg.source = readBackSource
	if readBack, err = sg.run(); err != nil {
		return nil, nil, err
	}
	r.note(readBack)
	return downtimes, readBack, nil
}

// setPercentile records under name the median, over the groups of sorted
// samples (the slices of the measured window), of each group's q-quantile,
// with the sample count. Like ops_per_s, a latency percentile is taken slice
// by slice: a stall of the sandbox lands in the tail of the slice it hit,
// not in the run's figure (pooled over the window, put_uniform's p99 moved
// by 25% between two campaigns of ten runs whose p50 differed by 10%). A
// percentile with too few samples beyond it in some group is still recorded
// (the contract wants every metric on every run) but flagged in the table.
func (r *servingRun) setPercentile(name string, groups [][]uint32, q float64) {
	m := metricValue{}
	var vals []float64
	for _, sorted := range groups {
		if len(sorted) == 0 {
			continue // a slice in which nothing completed
		}
		v, ok := percentile(sorted, q)
		vals = append(vals, float64(v)/1e3)
		m.Samples += len(sorted)
		m.ThinTail = m.ThinTail || !ok
	}
	m.Value, m.Spread = median(vals), medianNoise(vals)
	r.e2e[name] = m
}

func (r *servingRun) run() error {
	r.e2e, r.layer = map[string]metricValue{}, map[string]float64{}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer r.discard()

	// Set-up: boot + preload, several times over; the last instance stays.
	var setups []float64
	var preloads []*segResult
	begin := time.Now()
	for {
		r.discard()
		t0 := time.Now()
		preload, err := r.bootAndPreload(false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		preloads = append(preloads, preload)
		n, spent := len(setups), time.Since(begin)
		if n >= 4*r.ph.setups || (n >= r.ph.setups && spent >= r.ph.setupFor) || capped(spent, r.ph.setupCap) {
			break
		}
	}
	r.e2e["setup_s"] = medianOf(setups)
	r.lap("set-up", begin)

	// A traced run takes its spanned window first: if the server dies of the
	// span race (isolate.go), the attempt has cost little. The untraced
	// window after it only prices the spans.
	begin = time.Now()
	if r.trace {
		if err := r.tracedSegment(); err != nil {
			return err
		}
	}
	res, err := r.timed(r.ph.measure, false, nil)
	if err != nil {
		return err
	}
	untracedRate := median(res.sliceRates())
	if r.trace {
		r.layer["obs.span_overhead_frac"] = 1 - ratio(r.tracedRate, untracedRate)
	} else {
		r.endToEnd(res)
	}
	r.lap("load", begin)

	begin = time.Now()
	var downs []float64
	var readBacks []*segResult
	var recov [3][]float64 // entries scanned, redo writes, undo writes per cycle
	for i := 0; i < r.ph.restarts && !(i > 0 && capped(time.Since(begin), r.ph.restartCap)); i++ {
		d, rb, err := r.restartCycle()
		if err != nil {
			return err
		}
		downs = append(downs, d...)
		readBacks = append(readBacks, rb)
		if r.trace {
			counts, err := r.recoveryCounts()
			if err != nil {
				return err
			}
			for j := range recov {
				recov[j] = append(recov[j], counts[j])
			}
		}
	}
	r.e2e["restart_s"] = medianOf(downs)
	r.lap("restarts", begin)

	if !r.trace {
		// A workload without GETs (or without writes) still owes the contract
		// the metric: reads are then those of the read-back sweeps, writes
		// those of the preload (see README "Metrics a workload's own stream
		// lacks").
		if r.spec.getPct == 0 {
			r.setPercentile("read_p99_us", groupsOf(readBacks, kindGet), 0.99)
		}
		if !r.spec.hasWrites() {
			r.setPercentile("write_p99_us", groupsOf(preloads, kindTxn), 0.99)
		}
		return nil
	}
	r.layer["recovery.entries_scanned"] = median(recov[0])
	r.layer["recovery.redo_writes"] = median(recov[1])
	r.layer["recovery.undo_writes"] = median(recov[2])
	begin = time.Now()
	if err := r.offlineLayers(); err != nil {
		return err
	}
	r.layer["obs.telemetry_off_gain_frac"] = 0
	if r.telemetryOff {
		err = r.telemetryOffGain(untracedRate)
	}
	r.lap("offline layers", begin)
	return err
}

// capped reports whether a phase that has spent this much may not repeat.
func capped(spent, limit time.Duration) bool { return limit > 0 && spent >= limit }

// lap notes on standard error how long a phase of the run took: a run that
// comes close to the driver's time limit shows where the time went.
func (r *servingRun) lap(phase string, begin time.Time) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s took %.1f s\n", r.name, phase, time.Since(begin).Seconds())
}

// recoveryCounts sums, over the shards, what the restart just done had to
// recover: log entries scanned, redo writes, undo writes.
func (r *servingRun) recoveryCounts() (sum [3]float64, err error) {
	st, err := r.srv.Stats()
	if err != nil {
		return sum, err
	}
	for _, sh := range st.ShardStats {
		if sh.Recovery != nil {
			sum[0] += float64(sh.Recovery.EntriesScanned)
			sum[1] += float64(sh.Recovery.RedoWrites)
			sum[2] += float64(sh.Recovery.UndoWrites)
		}
	}
	return sum, nil
}

// telemetryOffGain reruns the untraced window on a fresh server with the
// event tracer and slow-span capture disabled: what the always-on telemetry
// costs in ops/s.
func (r *servingRun) telemetryOffGain(onRate float64) error {
	r.discard()
	if _, err := r.bootAndPreload(true); err != nil {
		return err
	}
	res, err := r.timed(r.ph.traced, false, nil)
	if err != nil {
		return err
	}
	r.layer["obs.telemetry_off_gain_frac"] = ratio(median(res.sliceRates()), onRate) - 1
	return nil
}

// groupsOf returns the sorted samples of the given kinds, one group per
// (untimed, single-slice) segment.
func groupsOf(rs []*segResult, kinds ...int) [][]uint32 {
	var groups [][]uint32
	for _, res := range rs {
		groups = append(groups, res.sorted(kinds...)...)
	}
	return groups
}

// endToEnd derives the user-visible metrics of the untraced measured window.
func (r *servingRun) endToEnd(res *segResult) {
	r.e2e["ops_per_s"] = medianOf(res.sliceRates())
	all := res.sorted(kindGet, kindPut, kindTxn)
	r.setPercentile("lat_p50_us", all, 0.50)
	r.setPercentile("lat_p99_us", all, 0.99)
	if r.spec.getPct > 0 {
		r.setPercentile("read_p99_us", res.sorted(kindGet), 0.99)
	}
	if r.spec.hasWrites() {
		r.setPercentile("write_p99_us", res.sorted(kindPut, kindTxn), 0.99)
	}
}

// tracedSegment reruns the load with client spans on and fills the layer
// metrics that come from the live server: pulse stage waterfall, Stats()
// deltas, host counters, and the benchmark's own client spans.
func (r *servingRun) tracedSegment() error {
	var snaps [2]snapshot
	res, err := r.timed(r.ph.traced, !r.unspanned, &snaps)
	if err != nil {
		return err
	}
	var doc pulse.Doc
	windows := max(int(r.ph.traced/r.ph.pulse), 1)
	if err := getJSON(fmt.Sprintf("http://%s/pulse.json?windows=%d", r.srv.HTTPAddr(), windows), &doc); err != nil {
		return fmt.Errorf("pulse scrape: %w", err)
	}
	r.liveLayers(res, snaps, &doc)
	r.tracedRate = median(res.sliceRates())
	path := filepath.Join(r.outDir, "trace-"+r.name+".json")
	if err := writeChromeTrace(path, r.name, res); err != nil {
		return err
	}
	r.traceFile = path
	return nil
}
