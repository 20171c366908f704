package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"pmemlog/internal/server"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// streamBytes encodes the first n requests of every connection's stream.
func streamBytes(t *testing.T, seed int64, spec serveSpec, n int) []byte {
	t.Helper()
	ks := newKeyspace(seed, spec.keys)
	vers := newVersions(spec.keys)
	var out []byte
	vals := make([]byte, preloadOps*spec.valBytes)
	ops := make([]server.Op, 0, preloadOps)
	for c := 0; c < numConns; c++ {
		g := newOpStream(ks, spec, c, vers)
		var op genOp
		for i := 0; i < n; i++ {
			g.gen(&op)
			req := g.request(&op, vals, ops)
			var err error
			if out, err = server.EncodeRequest(out, &req); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := streamBytes(t, 1, w.serve, 2000)
		if b := streamBytes(t, 1, w.serve, 2000); !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 1 differ", w.name)
		}
		if b := streamBytes(t, 2, w.serve, 2000); bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

func TestTxnKeysShareAShardAndPreloadCoversEveryKey(t *testing.T) {
	spec := findWorkload("mixed_wrap").serve
	ks := newKeyspace(3, spec.keys)
	vers := newVersions(spec.keys)
	checkTxn := func(op *genOp) {
		seen := map[int32]bool{}
		home := server.ShardOf(ks.names[op.keys[0]], numShards)
		for j := 0; j < op.n; j++ {
			k := op.keys[j]
			if seen[k] {
				t.Fatalf("txn repeats key %d", k)
			}
			seen[k] = true
			if s := server.ShardOf(ks.names[k], numShards); s != home {
				t.Fatalf("txn key %d is on shard %d, first key on %d", k, s, home)
			}
		}
	}
	txns := 0
	written := make([]int, spec.keys)
	for c := 0; c < numConns; c++ {
		g := newOpStream(ks, spec, c, vers)
		var op genOp
		for i := 0; i < 5000; i++ {
			if g.gen(&op); op.kind == kindTxn {
				if op.n != txnOps {
					t.Fatalf("measured txn has %d ops, want %d", op.n, txnOps)
				}
				checkTxn(&op)
				txns++
			}
			if int(op.keys[0])%numConns != c {
				t.Fatalf("connection %d touched key %d, which it does not own", c, op.keys[0])
			}
		}
		next := preloadSource(newOpStream(ks, spec, c, newVersions(spec.keys)))
		for next(&op) {
			checkTxn(&op)
			for j := 0; j < op.n; j++ {
				written[op.keys[j]]++
			}
		}
	}
	if txns == 0 {
		t.Fatal("mixed_wrap generated no TXN")
	}
	for k, n := range written {
		if n != 1 {
			t.Fatalf("preload writes key %d %d times, want once", k, n)
		}
	}
}

func TestMedianSpreadAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) = [1.75, 6.0, 20.0]
	if q1, q3 := quartiles([]float64{32, 1, 16, 2, 8, 4}); q1 != 1.75 || q3 != 20 {
		t.Errorf("quartiles = %v, %v; want 1.75, 20", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) = [10.0, 20.0, 30.0]
	if q1, q3 := quartiles([]float64{30, 10, 20}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of 3 = %v, %v; want 10, 30", q1, q3)
	}
	if got := iqrSpread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("iqrSpread = %v, want 0.2", got)
	}
	if got := medianNoise([]float64{90, 100, 110, 100}); got <= 0 || got >= iqrSpread([]float64{90, 100, 110, 100}) {
		t.Errorf("medianNoise = %v, want between 0 and the samples' own spread", got)
	}
	// ops_per_s is a median of slices: one stalled slice must not move it.
	if got := median([]float64{1000, 1010, 990, 1005, 200, 995}); got != 997.5 {
		t.Errorf("slice median = %v, want 997.5", got)
	}

	samples := make([]uint32, 2000)
	for i := range samples {
		samples[i] = uint32(i + 1)
	}
	if v, ok := percentile(samples, 0.50); v != 1000 || !ok {
		t.Errorf("p50 of 1..2000 = %d, %v; want 1000, supported", v, ok)
	}
	if v, ok := percentile(samples, 0.99); v != 1980 || !ok {
		t.Errorf("p99 of 1..2000 = %d, %v; want 1980, supported", v, ok)
	}
	// 500 samples leave 5 beyond the p99: too few, the percentile is withheld.
	if _, ok := percentile(samples[:500], 0.99); ok {
		t.Error("p99 of 500 samples reported as supported; fewer than 10 samples lie beyond it")
	}
	if _, ok := percentile(samples[:1100], 0.99); !ok {
		t.Error("p99 of 1100 samples withheld; 10 samples lie beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestVerifierFlagsLostStaleAndCorruptValues(t *testing.T) {
	const vb, key = 64, 7
	val := make([]byte, vb)
	fillValue(val, key, 5)
	// Versions 0..6 were issued (next = 7); 5 was the last acked before the read.
	if msg := checkValue(val, vb, key, 5, 7); msg != "" {
		t.Errorf("intact current value flagged: %s", msg)
	}
	if msg := checkValue(val, vb, key, 3, 7); msg != "" {
		t.Errorf("a value newer than the last ack (issued, not yet acked) flagged: %s", msg)
	}
	cases := []struct {
		name        string
		mutate      func(v []byte) []byte
		acked, next uint64
		want        string
	}{
		{"lost acked write", func(v []byte) []byte { return v }, 6, 7, "lost"},
		{"version never issued", func(v []byte) []byte { return v }, 0, 5, "never issued"},
		{"flipped byte", func(v []byte) []byte { v[20] ^= 1; return v }, 5, 7, "checksum"},
		{"truncated", func(v []byte) []byte { return v[:vb-8] }, 5, 7, "bytes"},
		{"another key's value", func(v []byte) []byte { fillValue(v, key+1, 5); return v }, 5, 7, "belongs to key"},
	}
	for _, c := range cases {
		v := c.mutate(append([]byte(nil), val...))
		if msg := checkValue(v, vb, key, c.acked, c.next); !strings.Contains(msg, c.want) {
			t.Errorf("%s: verdict %q, want one mentioning %q", c.name, msg, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{lower, metricValue{Value: 100}, metricValue{Value: 109}, verdictOK},
		{lower, metricValue{Value: 100}, metricValue{Value: 111}, verdictRegressed},
		{lower, metricValue{Value: 100}, metricValue{Value: 50}, verdictOK},
		{higher, metricValue{Value: 100}, metricValue{Value: 89}, verdictRegressed},
		{higher, metricValue{Value: 100}, metricValue{Value: 150}, verdictOK},
		{higher, metricValue{Value: 100, Spread: 0.3}, metricValue{Value: 80}, verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

// contract is BENCHMARK.json's schema.
type contract struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []map[string]any    `json:"end_to_end"`
	PerLayer   []map[string]any    `json:"per_layer"`
}

func catalogueContract() contract {
	c := contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, map[string]string{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return c
}

func TestContractMatchesCatalogue(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(catalogueContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is not the catalogue in contract form; run go test ./benchmark -run Contract -update", path)
	}

	// The driver's limits on names, units and lengths.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not fit the contract", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("the contract requires a setup_s metric in s, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not fit the contract", d.Name, d.Unit)
		}
		if d.Layer == "" || d.Moves == "" || !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s: a layer metric names its layer and the end-to-end metric it should move", d.Name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmokeRunEmitsEveryDeclaredMetric runs every workload, untraced and
// traced, at a fraction of -short's size (fewer keys, one grid benchmark)
// and checks that exactly the declared metric names come out, that the
// gate passes, and that an injected fault makes it fail.
func TestSmokeRunEmitsEveryDeclaredMetric(t *testing.T) {
	base := options{
		seed: 1, smoke: 150 * time.Millisecond, unspanned: true,
		refPath: "../" + microRefPath, benches: []string{"sps"},
	}
	for i := range workloads {
		w := workloads[i]
		w.serve.keys = 512
		for _, trace := range []bool{false, true} {
			name := w.name + "/e2e"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				o := base
				o.trace, o.scratch, o.outDir = trace, t.TempDir(), t.TempDir()
				res, err := runWorkload(&w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("gate: %d failed of %d attempted: %v", res.Failed, res.Attempted, res.Failures)
				}
				got, want := keys(res.EndToEnd), names(endToEnd)
				if trace {
					got, want = keys(res.PerLayer), names(perLayer)
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics emitted %v\nwant %v", got, want)
				}
				for k, v := range res.EndToEnd {
					if v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", k, v.Value)
					}
				}
			})
		}
	}
	for _, f := range []struct{ workload, fault string }{{"mixed_wrap", "verify"}, {"sim_paper", "micro"}} {
		f := f
		t.Run("fault/"+f.fault, func(t *testing.T) {
			t.Parallel()
			w := *findWorkload(f.workload)
			w.serve.keys = 512
			o := base
			o.fault, o.scratch, o.outDir = f.fault, t.TempDir(), t.TempDir()
			res, err := runWorkload(&w, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("injected %s fault went unnoticed", f.fault)
			}
		})
	}
}
