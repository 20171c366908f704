package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"pmemlog/internal/flight"
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
// grown), applying PUT and GET requests must not allocate per op. The
// measurement runs inside a single RunN so the per-batch costs (the
// thread's coroutine) are excluded — those are per batch of up to
// BatchMax requests, not per op.
func TestShardApplySteadyStateZeroAlloc(t *testing.T) {
	sh := newTestShard(t)
	const nKeys = 32
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%04d", i))
	}
	val := bytes.Repeat([]byte{'v'}, 64)
	reqs := make([]Request, 2*nKeys)
	for i := range keys {
		reqs[2*i] = Request{Code: OpPut, Key: keys[i], Val: val}
		reqs[2*i+1] = Request{Code: OpGet, Key: keys[i]}
	}

	// Warm until every growth amortizes out: the FWB machine truncates its
	// log lazily, so the volatile record mirror (and the controller's
	// pending-write set) only reach their steady-state footprint after the
	// circular log has wrapped several times. The warmup runs the exact
	// measured loop, unmeasured, until an identical pass allocates nothing.
	const ops = 4096
	var scratch []byte
	var before, after runtime.MemStats
	pass := func(ctx sim.Ctx, _ int) {
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			r := &reqs[i%len(reqs)]
			var resp Response
			resp, scratch = sh.apply(ctx, r, scratch[:0])
			if resp.Status != StatusOK {
				t.Errorf("op %d %s: %+v", i, flight.OpName(r.Code), resp)
				return
			}
		}
		runtime.ReadMemStats(&after)
	}
	const maxWarmPasses = 8
	var perOp float64
	for p := 0; p < maxWarmPasses; p++ {
		if err := sh.sys.RunN(pass); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}
		perOp = float64(after.Mallocs-before.Mallocs) / ops
		if perOp == 0 {
			return
		}
	}
	t.Fatalf("shard apply steady state allocates %.3f objects/op (%d over %d ops) even after %d warm passes, want 0",
		perOp, after.Mallocs-before.Mallocs, ops, maxWarmPasses-1)
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
