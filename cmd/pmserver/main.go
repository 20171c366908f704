// Command pmserver serves a sharded persistent KV store over TCP: every
// write funnels through the simulated HWL/FWB persistent-memory pipeline
// and is acknowledged only once the shard's NVRAM DIMM image is durably on
// disk. SIGINT/SIGTERM drain gracefully; kill -9 exercises the recovery
// path (the next boot replays the logs in each shard image).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmemlog/internal/prof"
	"pmemlog/internal/server"
	"pmemlog/internal/txn"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		dir    = flag.String("dir", "pmserver-data", "data directory for shard DIMM images")
		shards = flag.Int("shards", 4, "worker shards (fixed at first boot; later runs adopt the manifest)")
		mode   = flag.String("mode", "fwb", "logging design, one of "+fmt.Sprint(txn.AllModes()))
		queue  = flag.Int("queue", 256, "per-shard queue depth before backpressure")
		batch  = flag.Int("batch", 32, "max requests per shard batch")
		nvram  = flag.Uint64("nvram-mb", 8, "per-shard NVRAM size in MiB")
		logKB  = flag.Uint64("log-kb", 256, "per-shard log size in KiB")

		httpAddr = flag.String("http-addr", "", "serve /healthz, /pulse.json, and /metrics on this address (off when empty)")

		pulseInterval = flag.Duration("pulse-interval", time.Second, "telemetry window length (pmctl top refresh granularity)")
		pulseWindows  = flag.Int("pulse-windows", 64, "completed telemetry windows retained for trends")
		slo           = flag.Duration("slo", 20*time.Millisecond, "latency objective for SLO burn accounting")
		sloBudget     = flag.Float64("slo-budget", 0.001, "error budget: tolerated fraction of requests over the objective")
		degradedWrap  = flag.Float64("degraded-wrap", 1.0, "log wrap passes/s per shard before /healthz reports degraded")
		degradedQueue = flag.Float64("degraded-queue", 0.9, "queue-fill fraction per shard before /healthz reports degraded")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (stopped at drain)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at drain")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prof.Serve(*pprofAddr, log.Printf)

	m, err := txn.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv, err := server.Start(server.Config{
		Addr:       *addr,
		Dir:        *dir,
		Shards:     *shards,
		Mode:       m,
		QueueDepth: *queue,
		BatchMax:   *batch,
		NVRAMBytes: *nvram << 20,
		LogBytes:   *logKB << 10,
		HTTPAddr:   *httpAddr,

		PulseInterval:    *pulseInterval,
		PulseWindows:     *pulseWindows,
		SLOLatency:       *slo,
		SLOBudget:        *sloBudget,
		DegradedWrapRate: *degradedWrap,
		DegradedQueue:    *degradedQueue,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("pmserver: %v: draining", s)
	// Leave the black box behind before the drain erases the in-flight
	// picture: the dump lands next to the shard images for pmctl doctor.
	if err := srv.WriteFlightDump(srv.FlightDumpPath(), s.String()); err != nil {
		log.Printf("pmserver: flight dump failed: %v", err)
	} else {
		log.Printf("pmserver: flight dump written to %s", srv.FlightDumpPath())
	}
	srv.Shutdown()
	stopProf()
}
