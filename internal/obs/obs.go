// Package obs is the observability layer: a low-overhead event tracer
// and an atomic metrics registry shared by the simulator and pmserver.
//
// The tracer exists to make the paper's ordering arguments visible. The
// end-of-run aggregates in internal/stats say *how many* log-buffer
// stalls or forced write-backs a run suffered; the trace says *when*
// each one happened relative to the transactions around it, which is
// the only way to see an FWB scan racing log wrap-around or an
// uncacheable log update overlapping the cached store it covers.
//
// Design constraints, in order:
//
//  1. The disabled fast path must be one atomic load. Tracers are
//     threaded through every hot path of the machine (OnStore, log
//     append, FWB scan, shard apply), so when tracing is off the cost
//     must vanish into noise — the experiments' numbers depend on it.
//  2. Emit must be lock-free and allocation-free even when enabled.
//     Shard apply loops and the per-cycle simulator core cannot take a
//     mutex or touch the garbage collector per event.
//  3. Records are fixed-size so a ring is a flat array and a snapshot
//     is a bounded copy.
//
// Producers write into per-thread rings (ring index = simulated thread
// id, with one extra "machine" ring for engine/controller/cache events
// that have no owning thread). A ring is multi-producer safe: a writer
// claims a slot with an atomic fetch-add and then stores the three
// record words with atomic stores. When the ring wraps, the oldest
// records are overwritten — the drop policy is overwrite-oldest, and
// the total emit count is kept so RingStats' drop count is exact. Snapshot is meant
// to be taken after Disable (or any quiescent point); a snapshot raced
// with active producers may observe individually-torn records, which is
// acceptable for a diagnostic trace and irrelevant in the intended
// stop-the-world usage.
package obs

import (
	"sort"
	"sync/atomic"
)

// Kind identifies what a trace event records. The mapping from kinds to
// paper mechanisms is documented in DESIGN.md §10.
type Kind uint8

const (
	// KindNone marks a slot that was never written.
	KindNone Kind = iota

	// Transaction lifecycle (internal/sim ctx). Arg is unused.
	KindTxBegin
	KindTxCommit
	KindTxAbort

	// Undo+redo log (internal/nvlog via the core engine). Arg is the
	// record sequence number, except for KindLogWrap (the pass index
	// the log just entered) and KindLogTruncate (records dropped).
	KindLogAppend
	KindLogWrap
	KindLogStall // head-chase: append found the circular log full
	KindLogTruncate

	// Memory-controller buffers (internal/memctl). Arg is the line
	// address drained, except KindBufStall where it is the stall cycles.
	KindBufDrain
	KindBufStall

	// Force write-back scans (internal/cache). KindFwbScan summarises
	// one pass: Arg packs forced<<32 | flagged. KindFwbForced is one
	// FWB-state line written back mid-scan; Arg is the line address.
	KindFwbScan
	KindFwbForced

	// KindWriteBack is a dirty-line write-back reaching the controller
	// (eviction or flush). Arg is the line address.
	KindWriteBack

	kindCount
)

var kindNames = [kindCount]string{
	KindNone:        "none",
	KindTxBegin:     "tx-begin",
	KindTxCommit:    "tx-commit",
	KindTxAbort:     "tx-abort",
	KindLogAppend:   "log-append",
	KindLogWrap:     "log-wrap",
	KindLogStall:    "log-stall",
	KindLogTruncate: "log-truncate",
	KindBufDrain:    "buf-drain",
	KindBufStall:    "buf-stall",
	KindFwbScan:     "fwb-scan",
	KindFwbForced:   "fwb-forced",
	KindWriteBack:   "write-back",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded trace record. In a ring it occupies exactly
// three words: timestamp, argument, and a packed meta word.
type Event struct {
	TS   uint64 // machine cycles
	Arg  uint64 // kind-specific payload; see the Kind constants
	Kind Kind
	Ring uint8  // producing ring index
	TxID uint16 // owning transaction id, 0 when not applicable
	Span uint32 // request span tag, 0 when the event belongs to no request
}

// slot is the in-ring representation. Fields are written individually
// with atomic stores after the slot index is claimed; meta is stored
// last so a fully-quiescent snapshot always sees whole records.
type slot struct {
	ts   atomic.Uint64
	arg  atomic.Uint64
	meta atomic.Uint64
}

// packMeta folds kind, ring, txid, and the 32-bit request span tag into
// the slot's one meta word: the span rides in the high half that the
// original three-field layout left unused, so span annotation costs no
// extra ring space.
func packMeta(kind Kind, ring uint8, txid uint16, span uint32) uint64 {
	return uint64(kind) | uint64(ring)<<8 | uint64(txid)<<16 | uint64(span)<<32
}

// Ring is one fixed-capacity event buffer. Writers claim slots with an
// atomic fetch-add on pos, so a ring tolerates multiple concurrent
// producers; in the simulator each ring has a single producer by
// construction.
type Ring struct {
	pos   atomic.Uint64 // total events ever emitted into this ring
	_     [56]byte      // keep hot counters of adjacent rings off one line
	mask  uint64
	slots []slot
}

func newRing(capacity int) *Ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// RingStat is one ring's emit/drop accounting, for surfacing silent
// event loss on stats endpoints.
type RingStat struct {
	Emitted uint64 `json:"emitted"`
	Dropped uint64 `json:"dropped"`
}

// Tracer owns a set of rings and the global enabled flag.
type Tracer struct {
	enabled atomic.Bool
	rings   []*Ring
}

// NewTracer builds a tracer with the given number of rings, each
// holding perRing records (rounded up to a power of two). By
// convention, callers tracing a simulated machine allocate one ring
// per hardware thread plus a final machine ring.
func NewTracer(rings, perRing int) *Tracer {
	if rings < 1 {
		rings = 1
	}
	if perRing < 1 {
		perRing = 1
	}
	t := &Tracer{rings: make([]*Ring, rings)}
	for i := range t.rings {
		t.rings[i] = newRing(perRing)
	}
	return t
}

// Rings reports the number of rings.
func (t *Tracer) Rings() int { return len(t.rings) }

// Enable turns event recording on.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable turns event recording off. Emits begun before the store may
// still land; take snapshots at a quiescent point.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Emit records one event into the given ring. On a nil or disabled
// tracer it is a single predictable branch — every instrumentation
// hook in the machine calls this unconditionally. Out-of-range ring
// indices fold into the last (machine) ring rather than dropping the
// event. Emit never locks and never allocates.
func (t *Tracer) Emit(ring int, ts uint64, kind Kind, txid uint16, arg uint64) {
	t.EmitSpan(ring, ts, kind, txid, arg, 0)
}

// EmitSpan is Emit with a request span tag: the event is annotated as
// belonging to the request whose span ID folds to span (see the flight
// package), so a post-hoc scan can reassemble one request's causal
// timeline across rings. Same cost contract as Emit: lock-free,
// allocation-free, one branch when disabled.
func (t *Tracer) EmitSpan(ring int, ts uint64, kind Kind, txid uint16, arg uint64, span uint32) {
	if t == nil || !t.enabled.Load() {
		return
	}
	if ring < 0 || ring >= len(t.rings) {
		ring = len(t.rings) - 1
	}
	r := t.rings[ring]
	i := r.pos.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.ts.Store(ts)
	s.arg.Store(arg)
	s.meta.Store(packMeta(kind, uint8(ring), txid, span))
}

// Emitted reports the total number of events ever emitted.
func (t *Tracer) Emitted() uint64 {
	var n uint64
	for _, r := range t.rings {
		n += r.pos.Load()
	}
	return n
}

// RingStats reports per-ring emit and drop counts (index = ring index):
// every record ever emitted, and those overwritten by wrap-around.
func (t *Tracer) RingStats() []RingStat {
	if t == nil {
		return nil
	}
	out := make([]RingStat, len(t.rings))
	for i, r := range t.rings {
		p := r.pos.Load()
		out[i] = RingStat{Emitted: p, Dropped: p - min(p, uint64(len(r.slots)))}
	}
	return out
}

// Snapshot decodes every surviving record, oldest first within each
// ring, merged and sorted by timestamp (stable, so same-cycle events
// keep ring order). Call it after Disable or at a quiescent point.
func (t *Tracer) Snapshot() []Event {
	var out []Event
	for _, r := range t.rings {
		p := r.pos.Load()
		n := p
		if c := uint64(len(r.slots)); n > c {
			n = c
		}
		for i := p - n; i < p; i++ {
			s := &r.slots[i&r.mask]
			meta := s.meta.Load()
			k := Kind(meta & 0xff)
			if k == KindNone || k >= kindCount {
				continue
			}
			out = append(out, Event{
				TS:   s.ts.Load(),
				Arg:  s.arg.Load(),
				Kind: k,
				Ring: uint8(meta >> 8),
				TxID: uint16(meta >> 16),
				Span: uint32(meta >> 32),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
