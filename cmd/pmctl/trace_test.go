package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRoundTrip is the acceptance test: record a micro run with a log
// small enough to provably wrap, emit Chrome trace_event JSON, parse
// it back, and find the transaction duration events, FWB activity, and
// the wrap-around instants.
func TestRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"trace", "-bench", "hash", "-mode", "fwb", "-threads", "2",
		"-elements", "2048", "-txns", "120", "-log-kb", "16",
		"-o", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("pmctl trace exited %d: %s", code, stderr.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	counts := map[string]int{}
	begins, ends := 0, 0
	for _, e := range trace.TraceEvents {
		counts[e.Name]++
		if e.Name == "txn" && e.Phase == "B" {
			begins++
		}
		if e.Name == "txn" && e.Phase == "E" {
			ends++
		}
		if e.TS < 0 {
			t.Fatalf("negative timestamp in %+v", e)
		}
	}
	// 2 threads x 120 txns, rings big enough to keep them all.
	if begins != 240 || ends != 240 {
		t.Fatalf("txn B/E = %d/%d, want 240/240", begins, ends)
	}
	if counts["log-wrap"] == 0 {
		t.Fatal("16 KB log over 240 multi-record txns must wrap, but no log-wrap events")
	}
	if counts["fwb-scan"] == 0 || counts["fwb-forced"] == 0 {
		t.Fatalf("fwb mode ran without FWB events: %v", counts)
	}
	if counts["log-append"] == 0 {
		t.Fatal("no log-append events")
	}

	// The human-readable summary carries the per-phase breakdown.
	for _, want := range []string{"committed", "pre-log", "logging", "commit", "total"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestStdoutMode writes the JSON to stdout with -o -.
func TestStdoutMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"trace", "-bench", "sps", "-mode", "hwl", "-threads", "1",
		"-elements", "512", "-txns", "20", "-log-kb", "32", "-o", "-",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("pmctl trace exited %d: %s", code, stderr.String())
	}
	// First line is the JSON document, then the summary.
	line, _, _ := strings.Cut(stdout.String(), "\n")
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("stdout JSON line does not parse: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("stdout JSON missing traceEvents")
	}
}

func TestBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"trace", "-mode", "no-such-design"}, &out, &errw); code != 2 {
		t.Fatalf("bad mode exited %d, want 2", code)
	}
	if code := run([]string{"trace", "-definitely-not-a-flag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}
