// Package flight is the crash flight recorder: end-to-end request
// spans, an always-on in-flight span table, and the versioned black-box
// dump that pmctl doctor reads after a crash.
//
// The paper's argument is about ordering across a pipeline — log
// records must leave the core before cached data, FWB must beat log
// wrap-around — and a request that dies mid-pipeline is exactly the
// evidence recovery reasons about. A span follows one request through
// every hop (conn read → shard queue → store apply → txn begin/commit →
// nvlog append → ack), annotating the hops' existing obs events with a
// 32-bit tag so one request's causal timeline can be reassembled from
// the rings, and parking the request's own stage timestamps in a
// preallocated table that a dump snapshots even while traffic is live.
//
// Cost contract: everything a request touches per hop is an atomic
// store on a *Span the request already holds — no locks, no maps, no
// allocation — because the span hooks sit inside the same shard apply
// loop whose 0 allocs/op the perf tests guard.
package flight

import (
	"sync"
	"sync/atomic"
)

// SpanTag folds a 64-bit wire span ID (connection counter << 32 |
// request seq) into the 32-bit tag stamped on obs events. A plain XOR
// fold would collide systematically between neighboring connections
// (conn^seq repeats whenever two connections' IDs differ in the same
// low bits as their seqs — conn 4/seq 96 and conn 5/seq 97 share a
// tag), so the ID is mixed with a Fibonacci-hash multiply first and
// the high half taken: concurrently-live spans then collide only with
// birthday probability (~2^-32 per pair). Tag 0 is the untraced
// sentinel; a real span that happens to hash there is nudged to 1,
// which stays consistent because every producer and consumer derives
// tags through this one function.
func SpanTag(span uint64) uint32 {
	if span == 0 {
		return 0
	}
	t := uint32((span * 0x9e3779b97f4a7c15) >> 32)
	if t == 0 {
		return 1
	}
	return t
}

// Stage indices for a span's per-hop timestamps, in pipeline order.
// FWB and Durable are batch-granular: a shard applies a whole batch,
// then pays the forced-write-back drain and image persist once for all
// of it, so every spanned request in the batch shares those two marks —
// exactly the attribution the paper's no-force argument needs (commit
// is instant; durability cost is the decoupled FWB stage).
const (
	StageRecv    = iota // conn reader decoded the request
	StageEnqueue        // routed into the shard's bounded queue
	StageApply          // shard apply began executing it
	StageFWB            // batch applies done; FWB drain + image persist starting
	StageDurable        // batch durable (or determined read-only, no persist)
	StageAck            // response handed to the conn writer
	numStages
)

// Span is one in-flight request's flight record. Every field is atomic:
// the owning request's goroutines (conn reader → shard → conn writer)
// store into it hand-off style, while a concurrent Dump may load any
// field at any time — a torn multi-field view is acceptable for a
// diagnostic snapshot, but each individual load must be race-clean.
type Span struct {
	state  atomic.Uint32 // 0 free, 1 active
	id     atomic.Uint64 // wire span ID
	op     atomic.Uint32 // request opcode
	shard  atomic.Int32  // owning shard, -1 until routed
	status atomic.Int32  // response status, -1 until answered
	txid   atomic.Uint32 // simulator txid of the request's (last) txn

	stageNS [numStages]atomic.Int64 // ns since server start, 0 = not reached

	txBegin  atomic.Uint64 // cycles, machine-local clock
	txCommit atomic.Uint64
	logFirst atomic.Uint64 // log tail sequence before apply
	logLast  atomic.Uint64 // log tail sequence after apply
}

// Begin arms the span for a new request at StageRecv.
func (sp *Span) Begin(id uint64, op byte, recvNS int64) {
	sp.id.Store(id)
	sp.op.Store(uint32(op))
	sp.shard.Store(-1)
	sp.status.Store(-1)
	sp.txid.Store(0)
	for i := 1; i < numStages; i++ {
		sp.stageNS[i].Store(0)
	}
	sp.txBegin.Store(0)
	sp.txCommit.Store(0)
	sp.logFirst.Store(0)
	sp.logLast.Store(0)
	sp.stageNS[StageRecv].Store(recvNS)
	sp.state.Store(1)
}

// ID reports the wire span ID.
func (sp *Span) ID() uint64 { return sp.id.Load() }

// Tag reports the 32-bit obs annotation for this span.
func (sp *Span) Tag() uint32 { return SpanTag(sp.id.Load()) }

// Mark records the given stage's timestamp.
func (sp *Span) Mark(stage int, ns int64) { sp.stageNS[stage].Store(ns) }

// StageNS reads one stage's timestamp (0 = not reached). The pulse
// collector uses it to fold a finishing span's timings into the
// windowed stage histograms without snapshotting the whole span.
func (sp *Span) StageNS(stage int) int64 {
	if stage < 0 || stage >= numStages {
		return 0
	}
	return sp.stageNS[stage].Load()
}

// SetShard records the owning shard once routed.
func (sp *Span) SetShard(shard int) { sp.shard.Store(int32(shard)) }

// SetStatus records the response status byte.
func (sp *Span) SetStatus(status byte) { sp.status.Store(int32(status)) }

// SetTxn attributes the machine transaction the request ran as.
func (sp *Span) SetTxn(txid uint16, beginCyc, commitCyc uint64) {
	sp.txid.Store(uint32(txid))
	sp.txBegin.Store(beginCyc)
	sp.txCommit.Store(commitCyc)
}

// SetLogWindow records the log tail sequence straddling the apply, so a
// dump shows which records the request appended.
func (sp *Span) SetLogWindow(first, last uint64) {
	sp.logFirst.Store(first)
	sp.logLast.Store(last)
}

// SpanSnapshot is one span's dump/export form.
type SpanSnapshot struct {
	ID     uint64 `json:"id"`
	Op     uint8  `json:"op"`
	Shard  int    `json:"shard"`  // -1 = never routed
	Status int    `json:"status"` // -1 = never answered
	TxID   uint16 `json:"txid"`   // 0 = no machine txn attributed

	RecvNS    int64 `json:"recv_ns"`
	EnqueueNS int64 `json:"enqueue_ns"`
	ApplyNS   int64 `json:"apply_ns"`
	FwbNS     int64 `json:"fwb_ns"`     // batch applies done, persist starting
	DurableNS int64 `json:"durable_ns"` // batch durability point reached
	AckNS     int64 `json:"ack_ns"`

	TxBeginCyc  uint64 `json:"tx_begin_cyc"`
	TxCommitCyc uint64 `json:"tx_commit_cyc"`
	LogFirst    uint64 `json:"log_first"`
	LogLast     uint64 `json:"log_last"`
}

// Tag reports the snapshot's 32-bit obs annotation.
func (s *SpanSnapshot) Tag() uint32 { return SpanTag(s.ID) }

// LatencyStage names the per-stage latency decomposition of a finished
// span, in pipeline order (the waterfall pmctl top draws).
const (
	LatRoute = iota // recv → enqueue: decode + shard routing
	LatQueue        // enqueue → apply: shard queue wait
	LatApply        // apply → fwb: machine txns + log appends (batch tail)
	LatFWB          // fwb → durable: FWB drain + image persist
	LatAck          // durable → ack: response writeback hand-off
	NumLatStages
)

var latStageNames = [NumLatStages]string{"route", "queue", "apply", "fwb", "ack"}

// LatStageName labels a latency-stage index.
func LatStageName(i int) string {
	if i < 0 || i >= NumLatStages {
		return "unknown"
	}
	return latStageNames[i]
}

// StageDurations decomposes the snapshot's marks into per-stage
// latencies (nanoseconds). A stage whose bracketing marks are missing
// or out of order reports -1 (unknown) — an inline-answered request,
// for example, never reaches the shard stages. The sum of the known
// stages of a fully-marked span equals its recv→ack latency exactly,
// which is what lets windowed per-stage quantiles be read as shares of
// the end-to-end tail.
func (s *SpanSnapshot) StageDurations(out *[NumLatStages]int64) {
	marks := [NumLatStages + 1]int64{s.RecvNS, s.EnqueueNS, s.ApplyNS, s.FwbNS, s.DurableNS, s.AckNS}
	for i := 0; i < NumLatStages; i++ {
		lo, hi := marks[i], marks[i+1]
		if lo <= 0 || hi <= 0 || hi < lo {
			out[i] = -1
			continue
		}
		out[i] = hi - lo
	}
}

// SnapshotInto copies the span's current state (possibly torn across
// fields, individually race-clean) without allocating. Exported for
// the pulse exemplar capture, which snapshots a finishing span before
// Finish recycles the slot.
func (sp *Span) SnapshotInto(out *SpanSnapshot) {
	out.ID = sp.id.Load()
	out.Op = uint8(sp.op.Load())
	out.Shard = int(sp.shard.Load())
	out.Status = int(sp.status.Load())
	out.TxID = uint16(sp.txid.Load())
	out.RecvNS = sp.stageNS[StageRecv].Load()
	out.EnqueueNS = sp.stageNS[StageEnqueue].Load()
	out.ApplyNS = sp.stageNS[StageApply].Load()
	out.FwbNS = sp.stageNS[StageFWB].Load()
	out.DurableNS = sp.stageNS[StageDurable].Load()
	out.AckNS = sp.stageNS[StageAck].Load()
	out.TxBeginCyc = sp.txBegin.Load()
	out.TxCommitCyc = sp.txCommit.Load()
	out.LogFirst = sp.logFirst.Load()
	out.LogLast = sp.logLast.Load()
}

// Table is the preallocated in-flight span table plus the slow-request
// capture ring. Acquire/Finish are the request path (allocation-free);
// InFlight/Slow are the dump path and may run concurrently.
type Table struct {
	slots []Span
	free  chan *Span

	// thresholdNS gates tail sampling: a request whose recv→ack latency
	// meets it has its full snapshot retained in the slow ring.
	thresholdNS int64

	slowMu  sync.Mutex
	slow    []SpanSnapshot // fixed-capacity circular buffer
	slowPos uint64         // total slow captures ever taken

	drops atomic.Uint64 // Acquire calls refused because the table was full
}

// NewTable builds a table of capacity in-flight spans and a slow-capture
// ring of slowCap snapshots for requests at or above thresholdNS
// recv→ack latency (0 disables slow capture).
func NewTable(capacity, slowCap int, thresholdNS int64) *Table {
	if capacity < 1 {
		capacity = 1
	}
	if slowCap < 0 {
		slowCap = 0
	}
	t := &Table{
		slots:       make([]Span, capacity),
		free:        make(chan *Span, capacity),
		thresholdNS: thresholdNS,
		slow:        make([]SpanSnapshot, slowCap),
	}
	for i := range t.slots {
		t.free <- &t.slots[i]
	}
	return t
}

// Acquire claims a free span slot, arming it for a request. Returns nil
// when the table is full — the request then simply flies unrecorded
// (its obs events still carry the tag); a full table must shed load,
// not block the conn reader.
func (t *Table) Acquire(id uint64, op byte, recvNS int64) *Span {
	select {
	case sp := <-t.free:
		sp.Begin(id, op, recvNS)
		return sp
	default:
		t.drops.Add(1)
		return nil
	}
}

// Finish completes a span at ack time: records status and ack
// timestamp, captures the snapshot into the slow ring when the request
// ran long enough, and recycles the slot. sp must not be touched after.
func (t *Table) Finish(sp *Span, status byte, ackNS int64) {
	if sp == nil {
		return
	}
	sp.SetStatus(status)
	sp.Mark(StageAck, ackNS)
	if t.thresholdNS > 0 && len(t.slow) > 0 {
		if lat := ackNS - sp.stageNS[StageRecv].Load(); lat >= t.thresholdNS {
			t.slowMu.Lock()
			sp.SnapshotInto(&t.slow[t.slowPos%uint64(len(t.slow))])
			t.slowPos++
			t.slowMu.Unlock()
		}
	}
	sp.state.Store(0)
	t.free <- sp
}

// Drops reports how many requests could not be recorded (table full).
func (t *Table) Drops() uint64 { return t.drops.Load() }

// InFlightCount reports the number of active spans.
func (t *Table) InFlightCount() int { return len(t.slots) - len(t.free) }

// InFlight snapshots every active span. Safe to race with the request
// path; a span finishing mid-snapshot may appear with its final state
// or not at all.
func (t *Table) InFlight() []SpanSnapshot {
	out := make([]SpanSnapshot, 0, len(t.slots))
	for i := range t.slots {
		sp := &t.slots[i]
		if sp.state.Load() != 1 {
			continue
		}
		var s SpanSnapshot
		sp.SnapshotInto(&s)
		if sp.state.Load() != 1 {
			continue // finished mid-copy; drop the half view
		}
		out = append(out, s)
	}
	return out
}

// Slow returns the retained slow-request snapshots, oldest first.
func (t *Table) Slow() []SpanSnapshot {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	n := t.slowPos
	if c := uint64(len(t.slow)); n > c {
		n = c
	}
	out := make([]SpanSnapshot, 0, n)
	for i := t.slowPos - n; i < t.slowPos; i++ {
		out = append(out, t.slow[i%uint64(len(t.slow))])
	}
	return out
}

// SlowCaptured reports the total number of slow captures ever taken
// (including ones since overwritten).
func (t *Table) SlowCaptured() uint64 {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	return t.slowPos
}
