package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pmemlog/internal/mem"
)

// FuzzDecodeRequest: arbitrary bytes must never panic, and anything that
// decodes must survive an encode → decode round trip unchanged (Seq
// included — the pipelined client depends on it being echoed exactly).
// DecodeRequestInto with a dirty reused Request must agree with a fresh
// DecodeRequest, since the connection reader reuses one Request per conn.
func FuzzDecodeRequest(f *testing.F) {
	seed := []*Request{
		{Code: OpGet, Seq: 7, Key: []byte("k")},
		{Code: OpPut, Seq: 1 << 30, Key: []byte("k"), Val: []byte("v")},
		{Code: OpDel, Seq: 0, Key: []byte("k")},
		{Code: OpTxn, Seq: 42, Ops: []Op{
			{Code: OpPut, Key: []byte("a"), Val: []byte("1")},
			{Code: OpDel, Key: []byte("b")},
		}},
		{Code: OpStats, Seq: 9},
		{Code: OpMetrics, Seq: 10},
		{Code: OpGet, Seq: 11, Span: 1<<32 | 11, Key: []byte("k")},
		{Code: OpTxn, Seq: 12, Span: ^uint64(0), Ops: []Op{{Code: OpDel, Key: []byte("b")}}},
	}
	for _, r := range seed {
		body, err := EncodeRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{OpTxn, 0, 0, 0, 0, 0xff, 0xff})

	// reused persists across fuzz iterations, emulating the server's
	// per-connection Request reuse under adversarial interleavings.
	var reused Request
	f.Fuzz(func(t *testing.T, body []byte) {
		fresh, err := DecodeRequest(body)
		if err2 := DecodeRequestInto(&reused, body); (err == nil) != (err2 == nil) {
			t.Fatalf("fresh decode err=%v, reused decode err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if !requestsEqual(fresh, &reused) {
			t.Fatalf("reused decode %+v != fresh decode %+v", reused, *fresh)
		}
		re, err := EncodeRequest(nil, fresh)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v (%+v)", err, fresh)
		}
		back, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !requestsEqual(fresh, back) {
			t.Fatalf("round trip changed request: %+v -> %+v", fresh, back)
		}
	})
}

func requestsEqual(a, b *Request) bool {
	if a.Code != b.Code || a.Seq != b.Seq || a.Span != b.Span ||
		!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Val, b.Val) || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i].Code != b.Ops[i].Code ||
			!bytes.Equal(a.Ops[i].Key, b.Ops[i].Key) || !bytes.Equal(a.Ops[i].Val, b.Ops[i].Val) {
			return false
		}
	}
	return true
}

// FuzzDecodeResponse: arbitrary bytes must never panic, and anything that
// decodes must survive an encode → decode round trip with Seq, status and
// payload intact.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range []*Response{
		{Status: StatusOK, Seq: 3, Val: []byte("v")},
		{Status: StatusOK, Seq: 1 << 31, Val: nil},
		{Status: StatusNotFound, Seq: 8},
		{Status: StatusRetry, Seq: 5, RetryAfterMs: 250},
		{Status: StatusErr, Seq: 6, Err: "boom"},
		{Status: StatusOK, Seq: 7, Span: 1<<32 | 7, Val: []byte("v")},
	} {
		f.Add(EncodeResponse(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{StatusErr, 0, 0, 0, 0, 0xff, 0xff})

	var reused Response
	f.Fuzz(func(t *testing.T, body []byte) {
		fresh, err := DecodeResponse(body)
		if err2 := DecodeResponseInto(&reused, body); (err == nil) != (err2 == nil) {
			t.Fatalf("fresh decode err=%v, reused decode err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if fresh.Status != reused.Status || fresh.Seq != reused.Seq ||
			fresh.Span != reused.Span ||
			!bytes.Equal(fresh.Val, reused.Val) ||
			fresh.RetryAfterMs != reused.RetryAfterMs || fresh.Err != reused.Err {
			t.Fatalf("reused decode %+v != fresh decode %+v", reused, *fresh)
		}
		back, err := DecodeResponse(EncodeResponse(nil, fresh))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if back.Status != fresh.Status || back.Seq != fresh.Seq ||
			back.Span != fresh.Span ||
			!bytes.Equal(back.Val, fresh.Val) ||
			back.RetryAfterMs != fresh.RetryAfterMs || back.Err != fresh.Err {
			t.Fatalf("round trip changed response: %+v -> %+v", fresh, back)
		}
	})
}

// hostileManifests are pmserver.json files Start must refuse. The first
// two used to be adopted: zero shards panicked the first PUT with an
// integer divide by zero in ShardOf, and a non-persistent mode acked
// writes it could not make durable.
var hostileManifests = map[string]string{
	"zero shards":        `{"version":1,"shards":0,"mode":"fwb","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"non-pers mode":      `{"version":1,"shards":2,"mode":"non-pers","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"negative shards":    `{"version":1,"shards":-3,"mode":"fwb","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"shards over cap":    `{"version":1,"shards":1048576,"mode":"fwb","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"unsafe hw mode":     `{"version":1,"shards":2,"mode":"hw-ulog","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"unknown mode":       `{"version":1,"shards":2,"mode":"nope","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"numeric mode":       `{"version":1,"shards":2,"mode":8,"buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"zero buckets":       `{"version":1,"shards":2,"mode":"fwb","buckets":0,"nvram_bytes":2097152,"log_bytes":65536}`,
	"buckets past nvram": `{"version":1,"shards":2,"mode":"fwb","buckets":2305843009213693952,"nvram_bytes":2097152,"log_bytes":65536}`,
	"zero nvram":         `{"version":1,"shards":2,"mode":"fwb","buckets":128,"nvram_bytes":0,"log_bytes":65536}`,
	"nvram over cap":     `{"version":1,"shards":2,"mode":"fwb","buckets":128,"nvram_bytes":18446744073709551615,"log_bytes":65536}`,
	"zero log":           `{"version":1,"shards":2,"mode":"fwb","buckets":128,"nvram_bytes":2097152,"log_bytes":0}`,
	"log fills nvram":    `{"version":1,"shards":2,"mode":"fwb","buckets":128,"nvram_bytes":2097152,"log_bytes":2097152}`,
	"version 2":          `{"version":2,"shards":2,"mode":"fwb","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`,
	"not json":           `{"version":1,`,
}

func TestStartRejectsHostileManifest(t *testing.T) {
	for name, m := range hostileManifests {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(m), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := Start(testConfig(dir))
		if err == nil {
			srv.Kill()
			t.Errorf("%s: Start adopted the manifest", name)
		}
	}
}

// FuzzParseManifest: the manifest is read from the data directory, so
// whatever its bytes, parseManifest must not panic, and what it accepts
// must be a geometry Start can build without sizing anything from an
// unchecked field; an accepted manifest survives a re-encode unchanged.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"shards":2,"mode":"fwb","buckets":128,"nvram_bytes":2097152,"log_bytes":65536}`))
	for _, m := range hostileManifests {
		f.Add([]byte(m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := parseManifest(b)
		if err != nil {
			return
		}
		if m.Shards < 1 || m.Shards > maxManifestShards || !m.Mode.Spec().Persistent ||
			m.NVRAMBytes == 0 || m.NVRAMBytes > mem.MaxImageBytes ||
			m.LogBytes == 0 || m.LogBytes >= m.NVRAMBytes ||
			m.Buckets == 0 || m.Buckets*mem.WordSize > m.NVRAMBytes {
			t.Fatalf("accepted out-of-bounds manifest %+v", m)
		}
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := parseManifest(re); err != nil || back != m {
			t.Fatalf("re-encode changed manifest: %+v -> %+v (%v)", m, back, err)
		}
	})
}
