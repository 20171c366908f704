package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/sim"
)

// newTestShard boots one shard on a temp dir with the production machine
// configuration.
func newTestShard(tb testing.TB) *shard {
	tb.Helper()
	cfg := Config{}.withDefaults()
	sh, err := newShard(0, shardConfig(cfg), cfg.Buckets, tb.TempDir(), cfg.QueueDepth, cfg.BatchMax)
	if err != nil {
		tb.Fatal(err)
	}
	return sh
}

// TestShardApplySteadyStateZeroAlloc guards the simulated-machine hot
// path: once the working set exists (nodes allocated, scratch buffers
// grown), applying PUT, GET, DEL and 4-op TXN requests must not allocate
// per op. The apply loop runs inside a single RunN so the per-batch costs
// (the thread's coroutine) are excluded — those are per batch of up to
// BatchMax requests, not per op. The host side of a batch is held to the
// same bound beyond the machine run it wraps: the shard loop collecting
// and running it, publishing and reading the shard's view, the pulse
// sample, and the ack writer's finish accounting. Its batches are
// read-only: a write batch's image save is file I/O, which allocates.
func TestShardApplySteadyStateZeroAlloc(t *testing.T) {
	sh := newTestShard(t)
	cfg := Config{Shards: 1}.withDefaults()
	srv := &Server{cfg: cfg, shards: []*shard{sh}}
	srv.initObs()
	srv.initPulse()
	sh.nowNS = srv.nowNS
	sh.sys.AttachTracer(cfg.TraceEvents).Enable() // as Start wires every shard
	const nKeys = 32
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%04d", i))
	}
	val := bytes.Repeat([]byte{'v'}, 64)
	reqs := make([]Request, 0, 4*nKeys)
	for i, k := range keys {
		next := keys[(i+1)%nKeys]
		reqs = append(reqs,
			Request{Code: OpPut, Key: k, Val: val},
			Request{Code: OpGet, Key: k},
			Request{Code: OpDel, Key: k},
			Request{Code: OpTxn, Ops: []Op{
				{Code: OpPut, Key: k, Val: val},
				{Code: OpPut, Key: next, Val: val},
				{Code: OpDel, Key: next},
				{Code: OpPut, Key: next, Val: val},
			}})
	}

	// Warm until every growth amortizes out: the FWB machine truncates its
	// log lazily, so the volatile record mirror (and the controller's
	// pending-write set) only reach their steady-state footprint after the
	// circular log has wrapped several times. The warmup runs the exact
	// measured loop, unmeasured, until an identical pass allocates nothing.
	const ops, batches = 4096, 64
	var scratch []byte
	var mallocs uint64
	var before, after runtime.MemStats
	measure := func(f func()) uint64 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	applyAll := func(ctx sim.Ctx) {
		for i := 0; i < ops; i++ {
			r := &reqs[i%len(reqs)]
			var resp Response
			resp, scratch = sh.apply(ctx, r, scratch[:0])
			if resp.Status != StatusOK {
				t.Errorf("op %d %s: %+v", i, flight.OpName(r.Code), resp)
				return
			}
		}
	}
	pass := func(ctx sim.Ctx, _ int) { mallocs += measure(func() { applyAll(ctx) }) }
	// The host side runs on the shard's own loop goroutine, fed and
	// answered the way a connection's reader and writer do it.
	out := make(chan *connReq, cfg.BatchMax)
	crs := make([]connReq, cfg.BatchMax)
	var sample pulse.ShardSample
	go sh.loop()
	defer func() { close(sh.stop); <-sh.done }()
	// machineRun is the run runBatch wraps, in its shape: the goroutine it
	// spawns and a RunN whose closure captures the batch and sets the
	// shard's batch flags (the closure escapes to the heap). Each batch
	// may allocate that much and no more.
	machineRun := func() {
		batch := crs[:1]
		go func() {}()
		err := sh.sys.RunN(func(sim.Ctx, int) { sh.wrote, sh.anySpan = false, batch[0].span != nil })
		if err != nil {
			t.Errorf("empty run: %v", err)
		}
	}
	roundTrip := func(b int) {
		for i := range crs {
			cr := &crs[i]
			id := uint64(b)<<32 | uint64(i+1)
			cr.req = Request{Code: OpGet, Key: keys[i%nKeys], Span: id}
			cr.code, cr.start, cr.out = OpGet, time.Now(), out
			cr.spanTag = flight.SpanTag(id)
			cr.span = srv.flight.Acquire(id, OpGet, int64(srv.nowNS()))
			sh.queue <- cr
		}
		for range crs {
			srv.observeFinish(<-out)
		}
		_ = sh.view()
		srv.sampleShard(0, &sample)
	}
	hostSide := func() {
		for b := 0; b < batches; b++ {
			perBatch := measure(machineRun)
			runs := sh.live.Batches
			got := measure(func() { roundTrip(b) })
			if allowed := (sh.live.Batches - runs) * perBatch; got > allowed {
				mallocs += got - allowed
			}
			for i := range crs {
				if crs[i].resp.Status != StatusOK {
					t.Errorf("batch %d get %q: %+v", b, crs[i].req.Key, crs[i].resp)
				}
			}
		}
	}
	const maxWarmPasses = 8
	for p := 0; p < maxWarmPasses; p++ {
		mallocs = 0
		if err := sh.sys.RunN(pass); err != nil {
			t.Fatal(err)
		}
		hostSide()
		if t.Failed() {
			return
		}
		if mallocs == 0 {
			return
		}
	}
	t.Fatalf("shard steady state allocates %.3f objects/op (%d over %d ops and %d batches) even after %d warm passes, want 0",
		float64(mallocs)/ops, mallocs, ops, batches, maxWarmPasses-1)
}

// TestDecodeZeroAlloc guards the wire codecs: decoding into reused
// Request/Response values must not allocate (frame bodies are reused by
// the connection reader, so this is the whole per-frame parse cost).
func TestDecodeZeroAlloc(t *testing.T) {
	key, val := []byte("alloc-key"), bytes.Repeat([]byte{'x'}, 128)
	reqBody, err := EncodeRequest(nil, &Request{Code: OpPut, Seq: 42, Key: key, Val: val})
	if err != nil {
		t.Fatal(err)
	}
	txnBody, err := EncodeRequest(nil, &Request{Code: OpTxn, Seq: 43, Ops: []Op{
		{Code: OpPut, Key: key, Val: val}, {Code: OpDel, Key: key},
	}})
	if err != nil {
		t.Fatal(err)
	}
	respBody := EncodeResponse(nil, &Response{Status: StatusOK, Seq: 42, Val: val})

	var req Request
	var resp Response
	// One warmup decode so the TXN Ops slice reaches capacity.
	if err := DecodeRequestInto(&req, txnBody); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := DecodeRequestInto(&req, reqBody); err != nil {
			t.Fatal(err)
		}
		if err := DecodeRequestInto(&req, txnBody); err != nil {
			t.Fatal(err)
		}
		if err := DecodeResponseInto(&resp, respBody); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode paths allocate %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkFrameRoundTrip measures one request's full wire cost on the
// reused-buffer path: encode + frame + read + decode.
func BenchmarkFrameRoundTrip(b *testing.B) {
	key, val := []byte("bench-key"), bytes.Repeat([]byte{'x'}, 64)
	var frame, rbuf []byte
	var rd bytes.Reader
	var req Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Build the frame in one buffer: reserve the length header, encode,
		// patch — the same shape the server's connection writer uses.
		frame = append(frame[:0], 0, 0, 0, 0)
		var err error
		frame, err = EncodeRequest(frame, &Request{Code: OpPut, Seq: uint32(i), Key: key, Val: val})
		if err != nil {
			b.Fatal(err)
		}
		binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
		rd.Reset(frame)
		got, err := ReadFrameInto(&rd, rbuf, MaxFrame)
		if err != nil {
			b.Fatal(err)
		}
		rbuf = got[:cap(got)]
		if err := DecodeRequestInto(&req, got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardApply measures the simulated-machine cost of one PUT (the
// dominant term of server-side request latency).
func BenchmarkShardApply(b *testing.B) {
	sh := newTestShard(b)
	key := []byte("bench-key")
	val := bytes.Repeat([]byte{'v'}, 64)
	req := Request{Code: OpPut, Key: key, Val: val}
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	if err := sh.sys.RunN(func(ctx sim.Ctx, _ int) {
		for i := 0; i < b.N; i++ {
			var resp Response
			resp, scratch = sh.apply(ctx, &req, scratch[:0])
			if resp.Status != StatusOK {
				b.Errorf("put: %+v", resp)
				return
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}
