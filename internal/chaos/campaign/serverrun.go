package campaign

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"pmemlog/internal/chaos"
	"pmemlog/internal/flight"
	"pmemlog/internal/server"
)

// Server scenario runner: boot a chaos-armed pmserver, drive pipelined
// client traffic through the injected network faults (reconnecting and
// resending whenever a chaos conn-drop kills the connection), leave a
// window of requests in flight, snapshot the flight recorder, and kill
// the server mid-traffic. The audit is pmctl doctor's: analyze the dump
// against the shard images (every verdict must agree with a recovery
// replay, no acked write may be lost), then restart the server over the
// same images and read back every acknowledged key.

const (
	serverOps     = 96 // acked-write workload size per run
	serverTailOps = 6  // left in flight at the kill point
	serverWindow  = 8
	maxRounds     = 40
)

func chaosKey(i int) []byte { return []byte(fmt.Sprintf("chaos-%03d", i)) }

func chaosVal(seed int64, i int) []byte {
	return []byte(fmt.Sprintf("seed%d-op%d", seed, i))
}

func runServer(sc Scenario, seed int64, baseDir string, res *RunResult) {
	dir := filepath.Join(baseDir, fmt.Sprintf("%s-seed%d", sc.Name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.failf("scratch dir: %v", err)
		return
	}
	inj := chaos.New(chaos.Plan{Seed: seed, Sites: sc.Sites})
	defer res.finishLedger(inj)

	quiet := log.New(io.Discard, "", 0)
	srv, err := server.Start(server.Config{
		Addr: "127.0.0.1:0", Dir: dir,
		Shards: 2, QueueDepth: 64, BatchMax: 8,
		NVRAMBytes: 8 << 20, LogBytes: 256 << 10,
		ConnWindow: serverWindow, RetryAfterMs: 1,
		// Tail-sample every finished span: the slow ring is the dump's
		// record of acked requests, which is what the acked-loss audit
		// cross-checks against recovery.
		SlowSpans: serverOps + serverTailOps + 64, SlowThreshold: time.Nanosecond,
		Logger: quiet,
		Chaos:  inj,
	})
	if err != nil {
		res.failf("server start: %v", err)
		return
	}
	addr := srv.Addr()

	acked := make(map[string]string, serverOps)
	var cl *server.Client
	connect := func() bool {
		c, err := server.DialPipelined(addr, serverWindow)
		if err != nil {
			return false
		}
		c.EnableSpans()
		c.MaxRetries = 16
		cl = c
		return true
	}
	closeClient := func() {
		if cl != nil {
			cl.Close()
			cl = nil
		}
	}

	// Drive the acked workload, reconnecting across chaos conn-drops.
	// Re-putting an op whose ack was lost is idempotent (same key, same
	// value), so the retry loop is safe by construction.
	pending := make([]int, 0, serverOps)
	for i := 0; i < serverOps; i++ {
		pending = append(pending, i)
	}
	for round := 0; len(pending) > 0 && round < maxRounds; round++ {
		if cl == nil && !connect() {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		type issued struct {
			op   int
			call *server.Call
		}
		var batch []issued
		for _, op := range pending {
			call, err := cl.PutAsync(chaosKey(op), chaosVal(seed, op))
			if err != nil {
				break // client dead; completed calls below still count
			}
			batch = append(batch, issued{op, call})
		}
		still := pending[:0]
		done := make(map[int]bool, len(batch))
		for _, b := range batch {
			resp, err := b.call.Wait()
			if err == nil && resp.Status == server.StatusOK {
				acked[string(chaosKey(b.op))] = string(chaosVal(seed, b.op))
				done[b.op] = true
			}
			b.call.Release()
		}
		for _, op := range pending {
			if !done[op] {
				still = append(still, op)
			}
		}
		pending = still
		if len(pending) > 0 {
			closeClient() // the connection is suspect; start clean
		}
	}
	if len(pending) > 0 {
		res.failf("%d/%d writes never acked after %d rounds", len(pending), serverOps, maxRounds)
	}

	// Leave a tail of requests in flight, snapshot the black box, and
	// pull the plug. Tail ops acked before the kill join the durability
	// contract; the rest must show up as correctly rolled-back verdicts.
	if cl == nil {
		connect()
	}
	var tail []struct {
		op   int
		call *server.Call
	}
	if cl != nil {
		for j := 0; j < serverTailOps; j++ {
			op := serverOps + j
			call, err := cl.PutAsync(chaosKey(op), chaosVal(seed, op))
			if err != nil {
				break
			}
			tail = append(tail, struct {
				op   int
				call *server.Call
			}{op, call})
		}
	}
	dumpPath := filepath.Join(dir, "flight-dump.json")
	if err := srv.WriteFlightDump(dumpPath, "chaos"); err != nil {
		res.failf("flight dump: %v", err)
	}
	res.DumpPath = dumpPath
	srv.Kill()
	for _, t := range tail {
		resp, err := t.call.Wait()
		if err == nil && resp.Status == server.StatusOK {
			acked[string(chaosKey(t.op))] = string(chaosVal(seed, t.op))
		}
		t.call.Release()
	}
	closeClient()
	res.AckedWrites = len(acked)

	// pmctl doctor's audit, in-process: every flight verdict must agree with
	// the recovery replay over the shard images, and no acked span may
	// have been rolled back.
	d, err := flight.LoadDump(dumpPath)
	if err != nil {
		res.failf("load dump: %v", err)
		return
	}
	if d.Chaos == nil || d.Chaos.Seed != seed {
		res.failf("dump is missing the chaos ledger (seed not stamped)")
	}
	an, err := flight.Analyze(d, d.ImageOpener(dumpPath, dir))
	if err != nil {
		res.failf("dump analysis: %v", err)
		return
	}
	res.Findings = len(an.Findings())
	res.Agreement = an.Agreement()
	res.AckedLost = an.AckedLoss()
	if !res.Agreement {
		for _, f := range an.Findings() {
			if !f.Agrees {
				res.failf("span %d txn %d: verdict %s disagrees with recovery replay",
					f.Span.ID, f.Span.TxID, f.Verdict)
			}
		}
	}
	if res.AckedLost > 0 {
		for _, f := range an.Findings() {
			if f.AckedLost {
				res.failf("span %d txn %d: acked write lost by recovery", f.Span.ID, f.Span.TxID)
			}
		}
	}

	// Restart over the surviving images (no chaos this time) and read
	// back every acknowledged key: the end-to-end durability check.
	srv2, err := server.Start(server.Config{
		Addr: "127.0.0.1:0", Dir: dir, Logger: quiet,
	})
	if err != nil {
		res.failf("restart: %v", err)
		return
	}
	defer srv2.Shutdown()
	cl2, err := server.Dial(srv2.Addr())
	if err != nil {
		res.failf("restart dial: %v", err)
		return
	}
	defer cl2.Close()
	for k, v := range acked {
		got, found, err := cl2.Get([]byte(k))
		if err != nil {
			res.failf("restart get %s: %v", k, err)
			return
		}
		if !found {
			res.failf("acked write %s lost across kill+restart", k)
			continue
		}
		if string(got) != v {
			res.failf("acked write %s corrupted: got %q want %q", k, got, v)
		}
	}
}
