package main

// The benchmark's fixed vocabulary: workloads, end-to-end metrics and
// per-layer metrics, by the names later issues must use. BENCHMARK.json is
// this file in the driver's schema (TestContractMatchesCatalogue keeps them
// equal); what that schema has no key for — a metric's layer and the
// end-to-end metric it is predicted to move — lives here and is copied into
// every result file.

type workloadDef struct {
	name string
	why  string
	// serve is the serving traffic mix. For a workload whose measured work
	// is the simulator grid (simPrimary), it is the fixed control segment
	// that supplies the serving metrics the contract wants on every run.
	serve      serveSpec
	simPrimary bool
	// telemetryOff adds, to the traced run, the extra window that prices
	// the always-on telemetry (obs.telemetry_off_gain_frac).
	telemetryOff bool
}

var workloads = []workloadDef{
	{
		name:  "put_uniform",
		why:   "100% PUT, uniform over 16384 keys x 256 B: the durability point (Quiesce + ~3 MB/shard image write + fsync) does nearly all the work; an O(dirty) backend or group commit must show here",
		serve: serveSpec{keys: 16384, valBytes: 256, putPct: 100},
	},
	{
		name:         "get_zipf",
		why:          "100% GET, zipfian over the same 16384 x 256 B preload: no save ever runs, so wire, routing, queueing, simulated loads and the ack writer do all the work; a durability-path change must not move it",
		serve:        serveSpec{keys: 16384, valBytes: 256, getPct: 100, zipf: true},
		telemetryOff: true,
	},
	{
		name:  "mixed_wrap",
		why:   "50% GET / 30% PUT / 20% 4-op TXN, zipfian over 1024 keys x 64 B, 16 KiB log: the log wraps continuously and reads queue behind saves; log coalescing shows here, batching that starves reads is a loss",
		serve: serveSpec{keys: 1024, valBytes: 64, getPct: 50, putPct: 30, zipf: true, logBytes: 16 << 10},
	},
	{
		name:       "sim_paper",
		why:        "no server in the measured part: the 5 Table III microbenchmarks x FigureModes x threads {1,2} at QuickParams, repeated; checks the paper's numbers stay a fixed point and times the simulator itself",
		serve:      serveSpec{keys: 1024, valBytes: 64, getPct: 50, putPct: 50},
		simPrimary: true,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"` // predicted effect: end-to-end metric @ workload
	What   string  `json:"what,omitempty"`
}

// endToEnd lists the metrics a user of the system sees. The issue's twelfth,
// failed_frac, is carried by the contract's attempted/failed counts (a
// metric that is 0 on every healthy run cannot have a relative bound); its
// bound is failedFracBound, absolute.
//
// The bounds are wider than the issue proposed (10-20%): the 2-vCPU sandbox
// itself runs up to 25% faster or slower from one quarter of an hour to the
// next (README "Run-to-run spread"; the CPU-bound sim_minstr_per_host_s read
// 1.7 in one campaign of ten runs and 2.6 in another), and a bound inside
// that drift rejects innocent changes. 0.25 is the widest the driver accepts.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, What: "server boot + preload, median of the set-ups; on sim_paper grid construction + reference load + warm-up pass"},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25, What: "OK-acked ops per measured second, median of the 2 s slices"},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25, What: "submit to ack, all ops; median over the 2 s slices of the slice's percentile (so for every latency metric)"},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25, What: "submit to ack, all ops"},
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.25, What: "GET only (put_uniform: the read-back sweeps' GETs)"},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.25, What: "PUT + TXN (get_zipf: the preload's writes)"},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25, What: "server.Start on a killed server's directory until the first GET is answered, median of 100 restarts (5 kills x 20)"},
	{Name: "paper_fwb_speedup_x", Unit: "x", Better: "higher", Bound: 0.000001, What: "geomean fwb throughput / unsafe-base over the grid (Fig. 6)"},
	{Name: "paper_fwb_write_reduction_x", Unit: "x", Better: "higher", Bound: 0.000001, What: "geomean NVRAM write-traffic reduction vs unsafe-base incl. residual dirty bytes (Fig. 9)"},
	{Name: "paper_fwb_energy_reduction_x", Unit: "x", Better: "higher", Bound: 0.000001, What: "geomean memory dynamic-energy reduction vs unsafe-base (Fig. 8)"},
	{Name: "sim_minstr_per_host_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25, What: "simulated instructions (millions) retired per host second over the grid; host time is the sum over cells of each cell's median over the repetitions"},
}

const failedFracBound = 0.001

// Predicted effects, shared by the metrics of one group.
const (
	movesWire    = "ops_per_s @ get_zipf; none @ put_uniform"
	movesQueue   = "lat_p99_us, read_p99_us @ put_uniform, mixed_wrap (waiting behind a save)"
	movesRoute   = "ops_per_s @ get_zipf"
	movesApply   = "ops_per_s @ get_zipf"
	movesDurable = "ops_per_s, lat_p50_us, write_p99_us @ put_uniform (most), mixed_wrap (less); 0 saves @ get_zipf"
	movesImage   = "ops_per_s @ put_uniform (should account for most of shard.durable_p50_us)"
	movesLog     = "ops_per_s @ mixed_wrap, only through shard.apply_*; must not change @ sim_paper"
	movesSimHost = "ops_per_s @ get_zipf; sim_minstr_per_host_s @ sim_paper"
	movesRestart = "restart_s, mostly @ mixed_wrap (live log) vs put_uniform (image size)"
	movesObs     = "ops_per_s @ get_zipf; ~0 where the save dominates"
	movesHost    = "separates CPU-bound (get_zipf, sim_paper) from fsync-bound (put_uniform) runs"
)

var perLayer = []metricDef{
	{Name: "wire.encode_ns_per_op", Unit: "ns", Better: "lower", Layer: "wire", Moves: movesWire},
	{Name: "wire.decode_ns_per_op", Unit: "ns", Better: "lower", Layer: "wire", Moves: movesWire},
	{Name: "wire.req_bytes_per_op", Unit: "B", Better: "lower", Layer: "wire", Moves: movesWire},
	{Name: "wire.resp_bytes_per_op", Unit: "B", Better: "lower", Layer: "wire", Moves: movesWire},

	{Name: "client.submit_ns_per_op", Unit: "ns", Better: "lower", Layer: "client", Moves: movesRoute},
	{Name: "client.retries_per_op", Unit: "count", Better: "lower", Layer: "client", Moves: movesRoute},

	{Name: "server.route_p50_us", Unit: "us", Better: "lower", Layer: "server", Moves: movesRoute},
	{Name: "server.route_p99_us", Unit: "us", Better: "lower", Layer: "server", Moves: movesRoute},
	{Name: "server.route_share_p99", Unit: "frac", Better: "lower", Layer: "server", Moves: movesRoute},
	{Name: "server.queue_p50_us", Unit: "us", Better: "lower", Layer: "server", Moves: movesQueue},
	{Name: "server.queue_p99_us", Unit: "us", Better: "lower", Layer: "server", Moves: movesQueue},
	{Name: "server.queue_share_p99", Unit: "frac", Better: "lower", Layer: "server", Moves: movesQueue},
	{Name: "server.ack_p50_us", Unit: "us", Better: "lower", Layer: "server", Moves: movesRoute},
	{Name: "server.ack_p99_us", Unit: "us", Better: "lower", Layer: "server", Moves: movesRoute},
	{Name: "server.ack_share_p99", Unit: "frac", Better: "lower", Layer: "server", Moves: movesRoute},
	{Name: "server.backpressure_per_kop", Unit: "count", Better: "lower", Layer: "server", Moves: movesQueue},
	{Name: "server.stage_share_sum", Unit: "frac", Better: "higher", Layer: "server", Moves: "validity: the five stage p99 shares should sum to 1 +- 0.05"},

	{Name: "shard.apply_p50_us", Unit: "us", Better: "lower", Layer: "shard", Moves: movesApply},
	{Name: "shard.apply_p99_us", Unit: "us", Better: "lower", Layer: "shard", Moves: movesApply},
	{Name: "shard.apply_share_p99", Unit: "frac", Better: "lower", Layer: "shard", Moves: movesApply},
	{Name: "shard.durable_p50_us", Unit: "us", Better: "lower", Layer: "shard", Moves: movesDurable},
	{Name: "shard.durable_p99_us", Unit: "us", Better: "lower", Layer: "shard", Moves: movesDurable},
	{Name: "shard.durable_share_p99", Unit: "frac", Better: "lower", Layer: "shard", Moves: movesDurable},
	{Name: "shard.ops_per_batch", Unit: "count", Better: "higher", Layer: "shard", Moves: movesDurable},
	{Name: "shard.saves_per_write_op", Unit: "count", Better: "lower", Layer: "shard", Moves: movesDurable},
	{Name: "shard.saves_per_s", Unit: "1/s", Better: "lower", Layer: "shard", Moves: movesDurable},

	{Name: "mem.image_write_ms", Unit: "ms", Better: "lower", Layer: "mem", Moves: movesImage},
	{Name: "mem.image_read_ms", Unit: "ms", Better: "lower", Layer: "mem", Moves: "restart_s"},
	{Name: "mem.image_file_bytes", Unit: "B", Better: "lower", Layer: "mem", Moves: movesImage},
	{Name: "mem.host_write_bytes_per_write_op", Unit: "B", Better: "lower", Layer: "mem", Moves: movesImage},

	{Name: "sim.instr_per_op", Unit: "count", Better: "lower", Layer: "sim", Moves: movesLog},
	{Name: "sim.cycles_per_op", Unit: "count", Better: "lower", Layer: "sim", Moves: movesLog},
	{Name: "sim.txns_per_op", Unit: "count", Better: "lower", Layer: "sim", Moves: movesLog},
	{Name: "sim.host_us_per_op", Unit: "us", Better: "lower", Layer: "sim", Moves: movesSimHost},
	{Name: "sim.host_ns_per_instr", Unit: "ns", Better: "lower", Layer: "sim", Moves: movesSimHost},
	{Name: "core.log_appends_per_txn", Unit: "count", Better: "lower", Layer: "core", Moves: movesLog},
	{Name: "core.log_bytes_per_txn", Unit: "B", Better: "lower", Layer: "core", Moves: movesLog},
	{Name: "core.truncations_per_kop", Unit: "count", Better: "lower", Layer: "core", Moves: movesLog},
	{Name: "core.log_grows", Unit: "count", Better: "lower", Layer: "core", Moves: movesLog},
	{Name: "core.write_amp", Unit: "x", Better: "lower", Layer: "core", Moves: movesLog},
	{Name: "core.coalescible_frac", Unit: "frac", Better: "lower", Layer: "core", Moves: movesLog},
	{Name: "cache.l1_miss_frac", Unit: "frac", Better: "lower", Layer: "cache", Moves: movesLog},
	{Name: "cache.l2_miss_frac", Unit: "frac", Better: "lower", Layer: "cache", Moves: movesLog},
	{Name: "cache.fwb_forced_per_scan", Unit: "count", Better: "lower", Layer: "cache", Moves: movesLog},
	{Name: "cache.wasted_forced_frac", Unit: "frac", Better: "lower", Layer: "cache", Moves: movesLog},
	{Name: "memctl.nvram_write_bytes_per_txn", Unit: "B", Better: "lower", Layer: "memctl", Moves: movesLog},
	{Name: "memctl.log_buf_stalls_per_ktxn", Unit: "count", Better: "lower", Layer: "memctl", Moves: movesLog},
	{Name: "nvlog.wraps_per_s", Unit: "1/s", Better: "lower", Layer: "nvlog", Moves: movesLog},
	{Name: "nvlog.append_ns", Unit: "ns", Better: "lower", Layer: "nvlog", Moves: movesLog},

	{Name: "recovery.attach_ms", Unit: "ms", Better: "lower", Layer: "recovery", Moves: movesRestart},
	{Name: "recovery.entries_scanned", Unit: "count", Better: "lower", Layer: "recovery", Moves: movesRestart},
	{Name: "recovery.redo_writes", Unit: "count", Better: "lower", Layer: "recovery", Moves: movesRestart},
	{Name: "recovery.undo_writes", Unit: "count", Better: "lower", Layer: "recovery", Moves: movesRestart},

	{Name: "obs.span_overhead_frac", Unit: "frac", Better: "lower", Layer: "obs", Moves: movesObs},
	{Name: "obs.telemetry_off_gain_frac", Unit: "frac", Better: "lower", Layer: "obs", Moves: movesObs + " (ROADMAP budget <= 0.03; measured on get_zipf, 0 elsewhere)"},
	{Name: "obs.span_drops", Unit: "count", Better: "lower", Layer: "obs", Moves: movesObs},
	{Name: "obs.tracer_dropped", Unit: "count", Better: "lower", Layer: "obs", Moves: movesObs},

	{Name: "host.cpu_s_per_kop", Unit: "s", Better: "lower", Layer: "host", Moves: movesHost},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "host", Moves: movesHost},
}
