package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"testing"

	"pmemlog/internal/txn"
)

func testConfig(dir string) Config {
	return Config{
		Addr:       "127.0.0.1:0",
		Dir:        dir,
		Shards:     2,
		Mode:       txn.FWB,
		QueueDepth: 128,
		BatchMax:   8,
		Buckets:    128,
		NVRAMBytes: 2 << 20,
		LogBytes:   64 << 10,
		L2Bytes:    64 << 10,
		Logger:     log.New(io.Discard, "", 0),
	}
}

func TestServerBasicOps(t *testing.T) {
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

	if _, found, err := c.Get([]byte("missing")); err != nil || found {
		t.Fatalf("get missing: found=%v err=%v", found, err)
	}
	if err := c.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Get([]byte("alpha")); err != nil || !found || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("get alpha: %q found=%v err=%v", v, found, err)
	}
	// Overwrite, including a size change that forces node reallocation.
	if err := c.Put([]byte("alpha"), bytes.Repeat([]byte("x"), 200)); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get([]byte("alpha")); len(v) != 200 {
		t.Fatalf("overwrite: got %d bytes", len(v))
	}
	if found, err := c.Del([]byte("alpha")); err != nil || !found {
		t.Fatalf("del alpha: found=%v err=%v", found, err)
	}
	if _, found, _ := c.Get([]byte("alpha")); found {
		t.Fatal("alpha still present after del")
	}
	if found, _ := c.Del([]byte("alpha")); found {
		t.Fatal("double del reported found")
	}

	// Same-shard transaction: batch keys that hash to one shard.
	ops := sameShardOps(t, 2, 3)
	if err := c.Txn(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if v, found, _ := c.Get(op.Key); !found || !bytes.Equal(v, op.Val) {
			t.Fatalf("txn key %q: found=%v val=%q", op.Key, found, v)
		}
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Shards != 2 || len(snap.ShardStats) != 2 {
		t.Fatalf("stats shards: %+v", snap)
	}
	if snap.Keys != uint64(len(ops)) {
		t.Fatalf("stats keys = %d, want %d", snap.Keys, len(ops))
	}
	if snap.Txns == 0 || snap.LogAppends == 0 {
		t.Fatalf("stats counters empty: txns=%d appends=%d", snap.Txns, snap.LogAppends)
	}
	if snap.Mode != txn.FWB {
		t.Fatalf("stats mode = %v", snap.Mode)
	}
}

// sameShardOps builds n PUT ops whose keys all hash to one shard.
func sameShardOps(t *testing.T, shards, n int) []Op {
	t.Helper()
	var ops []Op
	want := -1
	for i := 0; len(ops) < n && i < 10000; i++ {
		key := []byte(fmt.Sprintf("txnkey-%04d", i))
		if want == -1 {
			want = ShardOf(key, shards)
		}
		if ShardOf(key, shards) != want {
			continue
		}
		ops = append(ops, Op{Code: OpPut, Key: key, Val: []byte(fmt.Sprintf("tv-%04d", i))})
	}
	if len(ops) < n {
		t.Fatal("could not build same-shard batch")
	}
	return ops
}

func TestCrossShardTxnRejected(t *testing.T) {
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

	// Find two keys on different shards.
	var a, b []byte
	for i := 0; b == nil && i < 10000; i++ {
		k := []byte(fmt.Sprintf("xs-%04d", i))
		switch {
		case a == nil:
			a = k
		case ShardOf(k, 2) != ShardOf(a, 2):
			b = k
		}
	}
	err = c.Txn([]Op{{Code: OpPut, Key: a, Val: []byte("1")}, {Code: OpPut, Key: b, Val: []byte("2")}})
	if _, ok := err.(ErrServer); !ok {
		t.Fatalf("cross-shard txn: got %v, want ErrServer", err)
	}
	// Neither key may have been written.
	for _, k := range [][]byte{a, b} {
		if _, found, _ := c.Get(k); found {
			t.Fatalf("cross-shard txn leaked key %q", k)
		}
	}
}

func TestGracefulRestartPersists(t *testing.T) {
	dir := t.TempDir()
	srv, err := Start(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.MaxRetries = 10
	const n = 40
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("persist-%03d", i)), []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restart with a deliberately different (ignored) geometry: the
	// manifest pins the real one.
	cfg := testConfig(dir)
	cfg.Shards = 7
	cfg.Buckets = 999
	srv2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown()
	c2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	snap, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Shards != 2 {
		t.Fatalf("manifest not adopted: %d shards", snap.Shards)
	}
	if snap.Keys != n {
		t.Fatalf("recovered %d keys, want %d", snap.Keys, n)
	}
	for i := 0; i < n; i++ {
		v, found, err := c2.Get([]byte(fmt.Sprintf("persist-%03d", i)))
		if err != nil || !found || !bytes.Equal(v, []byte(fmt.Sprintf("val-%03d", i))) {
			t.Fatalf("key %d after restart: %q found=%v err=%v", i, v, found, err)
		}
	}
}

// TestPutPastL1ThenGetAll is the default-mode regression: on a default
// 2-shard server, 1024 x 64 B PUTs overflow each shard machine's L1, so
// lines the FWB scanner wrote back and left clean get evicted silently
// and re-fetched through L2. Every key must read back its value — in fwb
// (the default) exactly as in hwl, which never forces a write-back.
func TestPutPastL1ThenGetAll(t *testing.T) {
	for _, mode := range []txn.Mode{txn.FWB, txn.HWL} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, err := Start(Config{Dir: t.TempDir(), Shards: 2, Mode: mode, Logger: log.New(io.Discard, "", 0)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()
			// Pipelined so the shards batch their image saves: one save
			// per PUT would make this the slowest test in the package.
			c, err := DialPipelined(srv.Addr(), 64)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.MaxRetries = 64

			const n = 1024
			key := func(i int) []byte { return []byte(fmt.Sprintf("past-l1-%04d", i)) }
			val := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 32) }
			puts := make([]*Call, n)
			for i := range puts {
				if puts[i], err = c.PutAsync(key(i), val(i)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			for i, put := range puts {
				if resp, err := put.Wait(); err != nil || resp.Status != StatusOK {
					t.Fatalf("put %d: %+v, %v", i, resp, err)
				}
			}
			missing, wrong := 0, 0
			for i := 0; i < n; i++ {
				switch got, found, err := c.Get(key(i)); {
				case err != nil:
					t.Fatalf("get %d: %v", i, err)
				case !found:
					missing++
				case !bytes.Equal(got, val(i)):
					wrong++
				}
			}
			if missing != 0 || wrong != 0 {
				t.Fatalf("%s: of %d keys written and acked, %d read back NotFound and %d a wrong value", mode, n, missing, wrong)
			}
		})
	}
}

func TestShardQueueBackpressure(t *testing.T) {
	// White-box: a shard whose loop is not running accepts exactly
	// queueDepth requests, then sheds load.
	cfg := testConfig(t.TempDir())
	sh, err := newShard(0, shardConfig(cfg), cfg.Buckets, cfg.Dir, 4, cfg.BatchMax)
	if err != nil {
		t.Fatal(err)
	}
	probe := func() *request { return &request{stats: make(chan ShardStats, 1)} }
	for i := 0; i < 4; i++ {
		if !sh.tryEnqueue(probe()) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if sh.tryEnqueue(probe()) {
		t.Fatal("enqueue accepted beyond queue capacity")
	}
	// Draining the loop answers everything queued.
	go sh.loop()
	close(sh.stop)
	<-sh.done
}

func TestDrainingRejectsWithRetry(t *testing.T) {
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
	srv.draining.Store(true)
	var retry ErrRetry
	if _, _, err := c.Get([]byte("k")); !errors.As(err, &retry) || retry.After == 0 {
		t.Fatalf("GET on a draining server: %v, want ErrRetry with a delay", err)
	}
	srv.draining.Store(false)
}

func TestManifestRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	srv, err := Start(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	// Corrupt a shard image: the store attach must fail loudly, not serve
	// garbage.
	img := srv.shards[0].imgPath
	if err := os.WriteFile(img, []byte("definitely not a DIMM image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(testConfig(dir)); err == nil {
		t.Fatal("Start accepted a corrupt shard image")
	}
}
