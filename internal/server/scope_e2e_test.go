package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"time"

	"pmemlog/internal/obs/pulse"
)

// fetchPulse grabs and decodes /pulse.json from a live server.
func fetchPulse(t *testing.T, srv *Server, windows string) *pulse.Doc {
	t.Helper()
	code, body := httpGet(t, "http://"+srv.HTTPAddr()+"/pulse.json?windows="+windows)
	if code != http.StatusOK {
		t.Fatalf("pulse.json status %d: %s", code, body)
	}
	var d pulse.Doc
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("pulse.json unparsable: %v\n%s", err, body)
	}
	return &d
}

// TestScopeCoalescibleZipfVsUniform is the workload-sensitivity half of
// the scope e2e: the coalescible fraction must rank a skewed workload
// above a uniform one. Both phases drive the same number of identical-
// shape TXN batches over a pre-inserted keyset; the only difference is
// key choice — uniform batches touch eight distinct lines, zipfian
// batches (fixed seed) repeat hot keys within a transaction, which is
// exactly the recurrence the per-txn line sketch measures.
func TestScopeCoalescibleZipfVsUniform(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1 // TXN batches must be single-shard
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.PulseInterval = time.Hour // windows closed manually
	srv, err := Start(cfg)
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

	const keys = 64
	key := func(i uint64) []byte {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], i%keys)
		return k[:]
	}
	val := func(tag uint64) []byte {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], tag)
		return v[:]
	}
	// Pre-insert the keyset so both phases are pure overwrites with the
	// same per-store footprint (no bucket-chain growth mid-experiment).
	for i := uint64(0); i < keys; i++ {
		if err := c.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Pulse().Tick() // retire the insert phase into its own window

	batch := func(pick func(j uint64) uint64, tag uint64) {
		ops := make([]Op, 8)
		for j := range ops {
			ops[j] = Op{Code: OpPut, Key: key(pick(uint64(j))), Val: val(tag + uint64(j))}
		}
		if err := c.Txn(ops); err != nil {
			t.Fatal(err)
		}
	}

	// Uniform: eight distinct keys per batch, strided eight apart so
	// their value words land on distinct cache lines.
	for b := uint64(0); b < 40; b++ {
		batch(func(j uint64) uint64 { return j*8 + b }, 1000+b*8)
	}
	srv.Pulse().Tick()
	uniform := fetchPulse(t, srv, "1").Scope.Shards[0]

	// Zipfian: the same batch shape, keys drawn from a fixed-seed zipf —
	// hot keys repeat within a single transaction.
	z := rand.NewZipf(rand.New(rand.NewSource(42)), 1.3, 1, keys-1)
	for b := uint64(0); b < 40; b++ {
		batch(func(uint64) uint64 { return z.Uint64() }, 5000+b*8)
	}
	srv.Pulse().Tick()
	zipf := fetchPulse(t, srv, "1").Scope.Shards[0]

	if uniform.PayloadBytesPerSec <= 0 || zipf.PayloadBytesPerSec <= 0 {
		t.Fatalf("no payload accounted: uniform=%+v zipf=%+v", uniform, zipf)
	}
	// Logging always costs more bytes than it stores (records are 4x a
	// word, plus header and commit framing).
	if uniform.WriteAmp <= 1 || zipf.WriteAmp <= 1 {
		t.Fatalf("write amp not amplifying: uniform=%.2f zipf=%.2f",
			uniform.WriteAmp, zipf.WriteAmp)
	}
	if zipf.CoalescibleFraction <= uniform.CoalescibleFraction {
		t.Fatalf("zipfian coalescible %.3f not above uniform %.3f",
			zipf.CoalescibleFraction, uniform.CoalescibleFraction)
	}
}

// TestScopeWrapForecastLive checks the wrap forecast against a wrap that
// actually happens on a live server: warm a steady overwrite workload
// through windows of identical shape, take the forecast, then keep
// driving the identical workload until the shard's log pass advances.
// The forecast is judged in windows, not wall seconds: its ETA divided by
// the mean length of the windows it was computed over must match the
// number of windows the wrap then took, within ±25% or ±1 window. A host
// hiccup (an fsync stall) that stretches a warm-up window lowers the
// measured append rate and lengthens the mean window by the same factor,
// so it cancels instead of failing the test. The log is sized so the wrap
// takes several windows and the workload is pure overwrites (constant
// records per put, so the warmed append rate is the true future rate).
func TestScopeWrapForecastLive(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	cfg.LogBytes = 64 << 10 // small log: wrap within a few seconds
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.PulseInterval = time.Hour
	srv, err := Start(cfg)
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

	const (
		keys          = 50
		putsPerWindow = 50
		windowSleep   = 40 * time.Millisecond
	)
	key := func(i int) []byte { return []byte{byte(i), 'w'} }
	var seq uint64
	window := func() {
		for j := 0; j < putsPerWindow; j++ {
			seq++
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], seq)
			if err := c.Put(key(j%keys), v[:]); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(windowSleep)
		srv.Pulse().Tick()
	}

	logPass := func() uint64 {
		t.Helper()
		code, body := httpGet(t, "http://"+srv.HTTPAddr()+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz status %d: %s", code, body)
		}
		var rep struct {
			Shards []struct {
				LogPass uint64 `json:"log_pass"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("healthz unparsable: %v\n%s", err, body)
		}
		return rep.Shards[0].LogPass
	}

	// Insert the keyset, then warm the overwrite rate through windows of
	// identical shape before trusting the forecast.
	for i := 0; i < keys; i++ {
		if err := c.Put(key(i), []byte("seed-val")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Pulse().Tick()
	const warm = 3
	for i := 0; i < warm; i++ {
		window()
	}

	doc := fetchPulse(t, srv, strconv.Itoa(warm))
	forecast := doc.Scope.Shards[0]
	if forecast.WrapETASeconds <= 0 {
		t.Fatalf("no wrap forecast under steady appends: %+v", forecast)
	}
	var warmNS int64
	for _, ns := range doc.History.WindowNS[len(doc.History.WindowNS)-warm:] {
		warmNS += ns
	}
	forecastWindows := forecast.WrapETASeconds / (float64(warmNS) / warm / 1e9)

	// Drive the identical workload until the pass counter advances.
	pass0 := logPass()
	observedWindows := 0.0
	for logPass() == pass0 {
		if observedWindows > 500 {
			t.Fatalf("log never wrapped (forecast said %.1f windows)", forecastWindows)
		}
		window()
		observedWindows++
	}

	if diff := math.Abs(forecastWindows - observedWindows); diff > 0.25*observedWindows && diff > 1 {
		t.Fatalf("wrap forecast %.1f windows (%.2fs) vs observed %.0f: outside ±25%% and ±1 window",
			forecastWindows, forecast.WrapETASeconds, observedWindows)
	}
}
