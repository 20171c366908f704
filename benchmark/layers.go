package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/server"
	"pmemlog/internal/sim"
	"pmemlog/internal/stats"
	"pmemlog/internal/txn"
)

// sumRuns adds up the shards' cumulative simulated-machine counters.
func sumRuns(s server.StatsSnapshot) (run stats.Run, batches, saves, requests uint64) {
	for _, sh := range s.ShardStats {
		run.Cycles += sh.Run.Cycles
		run.Instructions += sh.Run.Instructions
		run.Transactions += sh.Run.Transactions
		run.NVRAMWriteBytes += sh.Run.NVRAMWriteBytes
		run.LogWriteBytes += sh.Run.LogWriteBytes
		run.L1Hits += sh.Run.L1Hits
		run.L1Misses += sh.Run.L1Misses
		run.L2Hits += sh.Run.L2Hits
		run.L2Misses += sh.Run.L2Misses
		run.FwbScans += sh.Run.FwbScans
		run.FwbForced += sh.Run.FwbForced
		run.LogAppends += sh.Run.LogAppends
		run.LogBufStalls += sh.Run.LogBufStalls
		run.LogTruncated += sh.Run.LogTruncated
		run.LogGrows += sh.Run.LogGrows
		batches += sh.Batches
		saves += sh.Saves
		requests += sh.Requests
	}
	return
}

// liveLayers fills the layer metrics read off the running server over the
// traced window: counts are Stats() deltas summed over shards, stage times
// come from the /pulse.json waterfall.
func (r *servingRun) liveLayers(res *segResult, snaps [2]snapshot, doc *pulse.Doc) {
	L := r.layer
	secs := snaps[1].at.Sub(snaps[0].at).Seconds()
	d := func(a, b uint64) float64 { return float64(b - a) }
	ops, writes := res.ops()
	fops, kops := float64(ops), float64(ops)/1e3
	a, aBatches, aSaves, aReqs := sumRuns(snaps[0].stats)
	b, bBatches, bSaves, bReqs := sumRuns(snaps[1].stats)
	txns := d(a.Transactions, b.Transactions)

	var submitNS, submits float64
	for i := range res.conns {
		submitNS += float64(res.conns[i].submitNS)
		submits += float64(res.conns[i].submits)
	}
	retries := d(snaps[0].stats.Retries, snaps[1].stats.Retries)
	L["client.submit_ns_per_op"] = ratio(submitNS, submits)
	L["client.retries_per_op"] = ratio(retries, fops)
	L["server.backpressure_per_kop"] = ratio(retries, kops)

	// Stage waterfall. The pulse stage "fwb" is the batch's durability point
	// (settle: Quiesce + image save), reported here as shard.durable_*.
	stageName := map[string]string{
		"route": "server.route", "queue": "server.queue", "ack": "server.ack",
		"apply": "shard.apply", "fwb": "shard.durable",
	}
	shareSum := 0.0
	for _, st := range doc.Stages {
		name, ok := stageName[st.Stage]
		if !ok {
			continue
		}
		L[name+"_p50_us"] = float64(st.P50NS) / 1e3
		L[name+"_p99_us"] = float64(st.P99NS) / 1e3
		L[name+"_share_p99"] = st.ShareP99
		shareSum += st.ShareP99
		if st.Stage == "apply" {
			L["sim.host_us_per_op"] = st.MeanNS / 1e3
		}
	}
	L["server.stage_share_sum"] = shareSum

	L["shard.ops_per_batch"] = ratio(d(aReqs, bReqs), d(aBatches, bBatches))
	L["shard.saves_per_write_op"] = ratio(d(aSaves, bSaves), float64(writes))
	L["shard.saves_per_s"] = ratio(d(aSaves, bSaves), secs)
	L["mem.host_write_bytes_per_write_op"] = ratio(d(snaps[0].ioBytes, snaps[1].ioBytes), float64(writes))

	L["sim.instr_per_op"] = ratio(d(a.Instructions, b.Instructions), fops)
	L["sim.cycles_per_op"] = ratio(d(a.Cycles, b.Cycles), fops)
	L["sim.txns_per_op"] = ratio(txns, fops)
	L["core.log_appends_per_txn"] = ratio(d(a.LogAppends, b.LogAppends), txns)
	L["core.log_bytes_per_txn"] = ratio(d(a.LogWriteBytes, b.LogWriteBytes), txns)
	L["core.truncations_per_kop"] = ratio(d(a.LogTruncated, b.LogTruncated), kops)
	L["core.log_grows"] = d(a.LogGrows, b.LogGrows)
	L["core.write_amp"] = doc.Scope.WriteAmp
	L["core.coalescible_frac"] = doc.Scope.CoalescibleFraction
	L["cache.l1_miss_frac"] = ratio(d(a.L1Misses, b.L1Misses), d(a.L1Hits+a.L1Misses, b.L1Hits+b.L1Misses))
	L["cache.l2_miss_frac"] = ratio(d(a.L2Misses, b.L2Misses), d(a.L2Hits+a.L2Misses, b.L2Hits+b.L2Misses))
	L["cache.fwb_forced_per_scan"] = ratio(d(a.FwbForced, b.FwbForced), d(a.FwbScans, b.FwbScans))
	wasted := 0.0
	for _, sh := range doc.Scope.Shards {
		wasted += sh.WastedForcedFraction / float64(len(doc.Scope.Shards))
	}
	L["cache.wasted_forced_frac"] = wasted
	L["memctl.nvram_write_bytes_per_txn"] = ratio(d(a.NVRAMWriteBytes, b.NVRAMWriteBytes), txns)
	L["memctl.log_buf_stalls_per_ktxn"] = ratio(d(a.LogBufStalls, b.LogBufStalls), txns/1e3)
	L["nvlog.wraps_per_s"] = ratio(d(snaps[0].logPass, snaps[1].logPass), secs)

	L["obs.span_drops"] = d(snaps[0].stats.SpanDrops, snaps[1].stats.SpanDrops)
	L["obs.tracer_dropped"] = d(snaps[0].stats.TracerDropped, snaps[1].stats.TracerDropped)
	L["host.cpu_s_per_kop"] = ratio((snaps[1].cpu - snaps[0].cpu).Seconds(), kops)
}

// offlineLayers times the layers that can be called directly, after the
// load is over: the wire codec on the workload's own requests, the image
// writer/reader and recovery attach on a copy of shard 0's final image, and
// a bare nvlog append.
func (r *servingRun) offlineLayers() error {
	L := r.layer
	r.wireLayer()

	// Stop the server so the image is quiescent, then work on a copy.
	dir := r.srv.Dir()
	r.srv.Kill()
	img, err := mem.ReadPhysicalFile(filepath.Join(dir, "shard-000.img"))
	if err != nil {
		return err
	}
	copyPath := filepath.Join(dir, "layer-copy.img")
	var writes, reads, attaches []float64
	for i := 0; i < r.ph.layerReps; i++ {
		t0 := time.Now()
		if err := img.WriteFile(copyPath); err != nil {
			return err
		}
		writes = append(writes, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if _, err := mem.ReadPhysicalFile(copyPath); err != nil {
			return err
		}
		reads = append(reads, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if err := r.attach(dir, copyPath); err != nil {
			return fmt.Errorf("attach image copy: %w", err)
		}
		attaches = append(attaches, time.Since(t0).Seconds()*1e3)
	}
	L["mem.image_write_ms"] = median(writes)
	L["mem.image_read_ms"] = median(reads)
	L["recovery.attach_ms"] = median(attaches)
	if fi, err := os.Stat(copyPath); err == nil {
		L["mem.image_file_bytes"] = float64(fi.Size())
	}
	L["nvlog.append_ns"] = nvlogAppendNS(r.spec.logBytes)

	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		L["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return nil
}

// attach builds a machine like the server's shard machine (geometry from
// the data directory's manifest) and re-attaches the image at path: image
// load + the four-step recovery + volatile rebuild, as a restart does per
// shard.
func (r *servingRun) attach(dir, path string) error {
	var man struct {
		Mode       txn.Mode `json:"mode"`
		NVRAMBytes uint64   `json:"nvram_bytes"`
		LogBytes   uint64   `json:"log_bytes"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "pmserver.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return err
	}
	cfg := sim.DefaultConfig(man.Mode, 1)
	cfg.NVRAMBytes, cfg.LogBytes = man.NVRAMBytes, man.LogBytes
	// The rest as server.shardConfig sets it: a 256 KiB L2, no log growth.
	cfg.Caches.L2.SizeBytes = 256 << 10
	cfg.GrowReserveBytes, cfg.GrowFactor = 0, 0
	sys, err := sim.New(cfg)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = sys.Attach(f)
	return err
}

// wireLayer replays the first wireOps requests of connection 0's stream
// through the protocol codec in both directions, with the reply each would
// get (a value for a GET, a bare OK otherwise).
func (r *servingRun) wireLayer() {
	n := r.ph.wireOps
	// A private ledger: the replay must not disturb the run's.
	g := newOpStream(r.ks, r.spec, 0, newVersions(r.spec.keys))
	reqs := make([]server.Request, n)
	resps := make([]server.Response, n)
	getVal := make([]byte, r.spec.valBytes)
	fillValue(getVal, 0, 0)
	var op genOp
	for i := range reqs {
		g.gen(&op)
		reqs[i] = g.request(&op, make([]byte, op.n*r.spec.valBytes), make([]server.Op, 0, op.n))
		reqs[i].Seq = uint32(i)
		resps[i] = server.Response{Status: server.StatusOK, Seq: uint32(i)}
		if op.kind == kindGet {
			resps[i].Val = getVal
		}
	}

	// Encode twice: once timed into reused buffers, as the client and the
	// conn writer do, and once untimed into the streams the decoders read.
	var body, frame []byte
	t0 := time.Now()
	for i := range reqs {
		body, _ = server.EncodeRequest(body[:0], &reqs[i])
		frame = server.AppendFrame(frame[:0], body)
		body = server.EncodeResponse(body[:0], &resps[i])
		frame = server.AppendFrame(frame[:0], body)
	}
	encNS := time.Since(t0)
	var reqStream, respStream bytes.Buffer
	for i := range reqs {
		body, _ = server.EncodeRequest(body[:0], &reqs[i])
		reqStream.Write(server.AppendFrame(frame[:0], body))
		body = server.EncodeResponse(body[:0], &resps[i])
		respStream.Write(server.AppendFrame(frame[:0], body))
	}
	reqBytes, respBytes := reqStream.Len(), respStream.Len()

	var rbuf []byte
	var dreq server.Request
	var dresp server.Response
	decode := func(stream *bytes.Buffer, into func(body []byte) error) error {
		br := bufio.NewReader(stream)
		for i := 0; i < n; i++ {
			b, err := server.ReadFrameInto(br, rbuf, server.MaxFrame)
			if err == nil {
				err = into(b)
			}
			if err != nil {
				return err
			}
			rbuf = b[:cap(b)]
		}
		return nil
	}
	t0 = time.Now()
	err := decode(&reqStream, func(b []byte) error { return server.DecodeRequestInto(&dreq, b) })
	if err == nil {
		err = decode(&respStream, func(b []byte) error { return server.DecodeResponseInto(&dresp, b) })
	}
	decNS := time.Since(t0)
	if err != nil {
		r.failed++
		r.failures = append(r.failures, "wire replay: "+err.Error())
		return
	}

	fn := float64(n)
	r.layer["wire.encode_ns_per_op"] = float64(encNS.Nanoseconds()) / fn
	r.layer["wire.decode_ns_per_op"] = float64(decNS.Nanoseconds()) / fn
	r.layer["wire.req_bytes_per_op"] = float64(reqBytes) / fn
	r.layer["wire.resp_bytes_per_op"] = float64(respBytes) / fn
}

// nvlogAppendNS times nvlog.Log.PrepareAppend on a log of the workload's
// size, truncating half the log whenever it fills (as the FWB engine's
// head advance does), so the figure includes the wrap path.
func nvlogAppendNS(logBytes uint64) float64 {
	if logBytes == 0 {
		logBytes = 256 << 10
	}
	l, _, err := nvlog.New(nvlog.Config{Base: 0, SizeBytes: logBytes, Style: nvlog.UndoRedo})
	if err != nil {
		return 0
	}
	const n = 1 << 20
	e := nvlog.Entry{Kind: 1, TxID: 1, Addr: 0x1000, Undo: 1, Redo: 2}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if l.Full() {
			l.Truncate(l.Len() / 2)
		}
		e.Addr += 8
		if _, err := l.PrepareAppend(e); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// writeChromeTrace writes the segment's client spans as Chrome trace_event
// JSON: per request a root "request" span with children "client.submit"
// and "client.wait", one track per connection. args.span is the wire span
// ID the server's flight recorder knows the request by.
func writeChromeTrace(path, workload string, res *segResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q},"traceEvents":[`, workload)
	first := true
	event := func(name string, s *spanRec, from, to int64, root bool) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f`,
			name, kindName(int(s.kind)), s.conn, float64(from)/1e3, float64(to-from)/1e3)
		if root {
			fmt.Fprintf(w, `,"args":{"span":"0x%x"}`, s.id)
		}
		w.WriteByte('}')
	}
	for i := range res.conns {
		for j := range res.conns[i].spans {
			s := &res.conns[i].spans[j]
			event("request", s, s.start, s.end, true)
			event("client.submit", s, s.start, s.sent, false)
			event("client.wait", s, s.sent, s.end, false)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
