package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pmemlog/internal/chaos"
	"pmemlog/internal/obs"
)

// DumpVersion is the current dump file format version. Loaders reject
// versions they do not know: the dump is forensic evidence, and a
// misparsed field is worse than a refusal.
const DumpVersion = 1

// Event is one obs trace record in dump form (kind spelled out so dumps
// stay readable without the Kind enum's numbering).
type Event struct {
	TS   uint64 `json:"ts"`
	Kind string `json:"kind"`
	Ring int    `json:"ring"`
	TxID uint16 `json:"txid"`
	Arg  uint64 `json:"arg"`
	Span uint32 `json:"span,omitempty"`
}

// ShardState is one shard's pipeline pressure at dump time.
type ShardState struct {
	Shard     int      `json:"shard"`
	QueueLen  int      `json:"queue_len"`
	QueueCap  int      `json:"queue_cap"`
	LogHead   uint64   `json:"log_head"`
	LogTail   uint64   `json:"log_tail"`
	LogCap    uint64   `json:"log_cap"`
	LogBases  []uint64 `json:"log_bases"` // every log region's base address
	ImagePath string   `json:"image_path,omitempty"`
}

// Pass reports which circular-log pass the tail is on (the paper's
// wrap counter: sequence / capacity).
func (s *ShardState) Pass() uint64 {
	if s.LogCap == 0 {
		return 0
	}
	return s.LogTail / s.LogCap
}

// Occupancy reports log fullness in [0,1].
func (s *ShardState) Occupancy() float64 {
	if s.LogCap == 0 {
		return 0
	}
	return float64(s.LogTail-s.LogHead) / float64(s.LogCap)
}

// Dump is the versioned black-box snapshot written on panic, SIGTERM,
// or an explicit WriteFlightDump. Everything pmctl doctor needs to explain
// a dead process, in one JSON document.
type Dump struct {
	Version int    `json:"version"`
	Reason  string `json:"reason"` // "panic", "sigterm", "manual", ...

	CapturedAtNS int64  `json:"captured_at_ns"` // unix nanoseconds
	UptimeNS     int64  `json:"uptime_ns"`
	Addr         string `json:"addr,omitempty"`
	Mode         string `json:"mode,omitempty"`
	Shards       int    `json:"shards"`

	// The shard machines' trace rings, shard 0's first; event
	// timestamps are machine cycles.
	RingNames []string       `json:"ring_names,omitempty"`
	RingStats []obs.RingStat `json:"ring_stats,omitempty"`
	Events    []Event        `json:"events"`

	// Metrics is the registry's Prometheus text exposition. Registry
	// handles are plain atomics, so rendering it is safe even when the
	// shards themselves are wedged or mid-panic.
	Metrics string `json:"metrics,omitempty"`

	ShardStates []ShardState `json:"shard_states"`

	InFlight []SpanSnapshot `json:"in_flight"`
	Slow     []SpanSnapshot `json:"slow"`

	SpanDrops    uint64 `json:"span_drops"`    // span table full
	SlowCaptured uint64 `json:"slow_captured"` // total slow captures

	// Chaos is the fault-injection ledger when the run was chaos-armed:
	// the seed and every injected fault, so a crash dump carries the
	// exact failure schedule that produced it (reproduce with -seed).
	Chaos *chaos.Ledger `json:"chaos,omitempty"`
}

// ConvertEvents translates obs snapshot records into dump form.
func ConvertEvents(evs []obs.Event) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = Event{
			TS:   e.TS,
			Kind: e.Kind.String(),
			Ring: int(e.Ring),
			TxID: e.TxID,
			Arg:  e.Arg,
			Span: e.Span,
		}
	}
	return out
}

// WriteDump atomically persists the dump: marshal, write to a temp file
// in the target directory, fsync, rename. A dump races a dying process,
// so a reader must never observe a half-written file.
func WriteDump(path string, d *Dump) error {
	d.Version = DumpVersion
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return fmt.Errorf("flight: marshal dump: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".flight-dump-*")
	if err != nil {
		return fmt.Errorf("flight: dump temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("flight: write dump: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("flight: sync dump: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("flight: close dump: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("flight: publish dump: %w", err)
	}
	return nil
}

// LoadDump reads and validates a dump file.
func LoadDump(path string) (*Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("flight: parse dump %s: %w", path, err)
	}
	if d.Version != DumpVersion {
		return nil, fmt.Errorf("flight: dump %s has version %d, this build reads %d", path, d.Version, DumpVersion)
	}
	return &d, nil
}

// Timeline extracts the machine timeline of one span: every trace event
// whose tag matches, in cycle order (a span runs on one shard, and each
// shard's events are sorted by its tracer's snapshot).
func (d *Dump) Timeline(spanID uint64) []Event {
	tag := SpanTag(spanID)
	if tag == 0 {
		return nil
	}
	var out []Event
	for _, e := range d.Events {
		if e.Span == tag {
			out = append(out, e)
		}
	}
	return out
}
