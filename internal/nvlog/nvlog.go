// Package nvlog implements the circular undo+redo log the paper keeps in
// NVRAM (Section III-A, Figure 3(a)): a single-producer single-consumer
// Lamport circular buffer of fixed-size records, each carrying a torn bit,
// a 16-bit transaction ID, an 8-bit thread ID, a 48-bit physical address,
// a one-word undo value, and a one-word redo value.
//
// A record's fields (Figure 3(a): 1-bit torn, 16-bit TxID, 8-bit thread,
// 48-bit address, one-word undo, one-word redo ≈ 26 B) pack into a 32 B
// slot, two per cache line, which the write-combining log buffer
// coalesces. (The paper's "64K entries ≈ 4 MB" aside implies 64 B slots;
// we follow the Figure 3(a) field layout instead — a 4 MB log holds 128K
// records here, which only makes the FWB frequency law easier to satisfy.)
//
// The package is purely computational: it manages head/tail registers,
// slot addressing, torn-bit parity, and record encoding. The *functional*
// NVRAM writes are returned to the caller as Write descriptors so the
// memory controller can apply them with proper timing and crash fidelity.
// Recovery reads the NVRAM image directly (see ReadMeta/Scan).
package nvlog

import (
	"errors"
	"fmt"

	"pmemlog/internal/mem"
)

// Style selects which values records carry.
type Style int

const (
	// UndoRedo records both old and new values (the paper's design).
	UndoRedo Style = iota
	// UndoOnly records only old values (undo logging baselines).
	UndoOnly
	// RedoOnly records only new values (redo logging baselines).
	RedoOnly
)

func (s Style) String() string {
	switch s {
	case UndoRedo:
		return "undo+redo"
	case UndoOnly:
		return "undo"
	default:
		return "redo"
	}
}

// EntrySize returns the record size in bytes for the style.
func (s Style) EntrySize() uint64 {
	if s == UndoRedo {
		return FullEntrySize
	}
	return CompactEntrySize
}

// Record kinds. The paper writes a "log record header" on the first cache
// line update of a data object (Section III-E step 1a); we generalize to
// explicit Header and Commit kinds alongside Update records. Commit records
// make recovery's committed-transaction detection explicit (a documented
// strengthening of the paper's value-matching heuristic).
const (
	KindHeader = 1 // transaction's first record: announces txid
	KindUpdate = 2 // one store: addr + undo/redo values
	KindCommit = 3 // transaction committed
)

const (
	// FullEntrySize is the size of an undo+redo record (two per line).
	FullEntrySize = 32
	// CompactEntrySize is the size of an undo-only or redo-only record.
	CompactEntrySize = 32
	// MetaSize is the metadata block at the start of the log region: magic,
	// persisted head, persisted tail, capacity, style (one line).
	MetaSize = mem.LineSize

	// Record byte-class split (see EncodeInto): bytes 0-13 are header
	// (flags, thread, txid, magic, pass, reserved, 48-bit address),
	// 14-15 the FNV checksum, 16-23 the undo word, 24-31 the redo word.
	// Scope accounting and the pmctl scope offline analyzer attribute every
	// log byte to one of these classes; update records carry all four,
	// header/commit records only header+checksum (their value words are
	// reserved-zero and count as header padding).
	RecUndoBytes     = 8
	RecRedoBytes     = 8
	RecChecksumBytes = 2

	magic0 = 0x5F // "Steal but no Force"
	magic1 = 0xB0
)

// Entry is one log record.
type Entry struct {
	Kind     uint8
	TxID     uint16
	ThreadID uint8
	Addr     mem.Addr // 48-bit physical address of the logged word
	Undo     mem.Word // old value (styles UndoRedo, UndoOnly)
	Redo     mem.Word // new value (styles UndoRedo, RedoOnly)
}

// Write is a functional NVRAM write the caller must apply (through the
// memory controller's tracked path) to make an append or truncate durable.
//
// ALIASING CONTRACT: Bytes returned by PrepareAppend and Truncate alias
// scratch buffers owned by the Log (the zero-allocation append path) and
// are valid only until the next PrepareAppend/Truncate/Grow call on that
// Log. Callers must consume them (hand them to the memory controller,
// which copies) before appending again; both the hardware engine and the
// software append path do. Writes returned by New and Grow are
// independently allocated and do not expire.
type Write struct {
	Addr  mem.Addr
	Bytes []byte
}

// Encode serializes e into a record of the style's size. pass is the
// record's pass number over the circular buffer (seq / capacity); its low
// bit is the paper's torn bit, and the full 8-bit value is stored as a
// pass stamp so a scan against a stale durable head cannot confuse pass N
// with pass N+2 (a documented strengthening — under the paper's eager
// pointer persistence one bit suffices; see DESIGN.md).
func Encode(e Entry, style Style, pass uint64) []byte {
	buf := make([]byte, style.EntrySize())
	EncodeInto(buf, e, style, pass)
	return buf
}

// EncodeInto serializes e into buf, which must hold at least
// style.EntrySize() bytes. Every byte of the record is written (reserved
// bytes are cleared), so a reused scratch buffer cannot leak a previous
// record's contents.
func EncodeInto(buf []byte, e Entry, style Style, pass uint64) {
	flags := e.Kind << 1
	if pass%2 == 1 {
		flags |= 1 // the torn bit
	}
	buf[0] = flags
	buf[1] = e.ThreadID
	buf[2] = byte(e.TxID)
	buf[3] = byte(e.TxID >> 8)
	buf[4] = magic0
	buf[5] = magic1
	buf[6] = byte(pass)
	buf[7] = 0 // reserved
	a := uint64(e.Addr)
	for i := 0; i < 6; i++ { // 48-bit address
		buf[8+i] = byte(a >> (8 * i))
	}
	switch style {
	case UndoRedo:
		putWord(buf[16:24], e.Undo)
		putWord(buf[24:32], e.Redo)
	case UndoOnly:
		putWord(buf[16:24], e.Undo)
		putWord(buf[24:32], 0)
	case RedoOnly:
		putWord(buf[16:24], e.Redo)
		putWord(buf[24:32], 0)
	}
	cs := recordSum(buf)
	buf[14], buf[15] = byte(cs), byte(cs>>8)
}

// recordSum folds FNV-1a over every record byte except the checksum's
// own slot (bytes 14-15). Covering the header as well as the body is what
// makes the check bite: a record torn after its first write unit pairs a
// fresh header with a stale body whose stale checksum was computed over
// the *stale* header — the pass stamp alone guarantees the two headers
// differ, so the sum cannot carry over.
func recordSum(buf []byte) uint16 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i, b := range buf[:FullEntrySize] {
		if i == 14 || i == 15 {
			continue
		}
		h = (h ^ uint64(b)) * prime64
	}
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

// Decode parses a record. It returns the entry, its pass stamp (whose low
// bit is the torn bit and must equal bit 0 of the flags), and whether the
// record looks like a valid record of this log (magic bytes match and the
// kind is known).
func Decode(buf []byte, style Style) (Entry, uint8, bool) {
	if len(buf) < int(style.EntrySize()) {
		return Entry{}, 0, false
	}
	if buf[4] != magic0 || buf[5] != magic1 {
		return Entry{}, 0, false
	}
	// The record checksum (bytes 14-15, FNV-1a over the rest) rejects
	// prefix-torn records: NVRAM tears at 8-byte write-unit granularity,
	// so a crash can land a record's header word without its body — the
	// torn bit, magic, and pass stamp would all look current over stale
	// or scrubbed body bytes. A documented strengthening of the paper's
	// single torn bit (see DESIGN.md); treating the reject as a hole is
	// sound for the same reason holes are: an incomplete record write
	// means nothing after it can have been durably acknowledged.
	if cs := recordSum(buf); buf[14] != byte(cs) || buf[15] != byte(cs>>8) {
		return Entry{}, 0, false
	}
	var e Entry
	pass := buf[6]
	if (buf[0]&1 == 1) != (pass%2 == 1) {
		return Entry{}, 0, false // torn bit and pass stamp disagree
	}
	e.Kind = buf[0] >> 1
	if e.Kind < KindHeader || e.Kind > KindCommit {
		return Entry{}, 0, false
	}
	e.ThreadID = buf[1]
	e.TxID = uint16(buf[2]) | uint16(buf[3])<<8
	var a uint64
	for i := 5; i >= 0; i-- {
		a = a<<8 | uint64(buf[8+i])
	}
	e.Addr = mem.Addr(a)
	switch style {
	case UndoRedo:
		e.Undo = getWord(buf[16:24])
		e.Redo = getWord(buf[24:32])
	case UndoOnly:
		e.Undo = getWord(buf[16:24])
	case RedoOnly:
		e.Redo = getWord(buf[16:24])
	}
	return e, pass, true
}

func putWord(b []byte, w mem.Word) {
	for i := 0; i < 8; i++ {
		b[i] = byte(w >> (8 * i))
	}
}

func getWord(b []byte) mem.Word {
	var w mem.Word
	for i := 7; i >= 0; i-- {
		w = w<<8 | mem.Word(b[i])
	}
	return w
}

// Config describes a log region in NVRAM.
type Config struct {
	Base      mem.Addr // line-aligned start (metadata occupies the first line)
	SizeBytes uint64   // region size including metadata
	Style     Style
	// MetaEvery persists the tail pointer to NVRAM metadata every N appends
	// (bounding how much of the log recovery must torn-bit-scan). 0 means
	// capacity/4.
	MetaEvery uint64
	// LineAligned pads every record slot to a full cache line — what
	// software logging implementations do to avoid partial-line writes and
	// false sharing. The hardware design instead packs records two per
	// line, coalesced by the log buffer; that density difference is part
	// of the paper's NVRAM-traffic win (Fig 9).
	LineAligned bool
}

// SlotSize returns the per-record slot size in bytes.
func (c Config) SlotSize() uint64 {
	if c.LineAligned {
		return mem.LineSize
	}
	return c.Style.EntrySize()
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Base.IsLineAligned() {
		return fmt.Errorf("nvlog: base %v not line aligned", c.Base)
	}
	if c.SizeBytes < MetaSize+c.SlotSize() {
		return fmt.Errorf("nvlog: region of %d bytes too small", c.SizeBytes)
	}
	return nil
}

// Capacity returns the number of entry slots the region holds.
func (c Config) Capacity() uint64 {
	return (c.SizeBytes - MetaSize) / c.SlotSize()
}

// ErrFull is returned by PrepareAppend when the circular buffer has no free
// slot; the producer must truncate (after forcing write-backs) or grow.
var ErrFull = errors.New("nvlog: log full")

// Log manages one circular log. Head and tail are monotonically increasing
// sequence numbers held in (volatile) special registers; slot = seq mod
// capacity; torn parity = (seq / capacity) mod 2.
type Log struct {
	cfg           Config
	head, tail    uint64
	appendsSince  uint64 // appends since last tail-metadata persist
	truncReserved uint64 // records truncated since last head-metadata persist
	// headDurable is the head value of the last metadata write that the
	// caller BARRIERED to completion (the PrepareAppend reuse contract).
	// Ordinary lazy metadata writes must not advance it: they may still be
	// in flight — or be reverted by a crash — when a colliding record
	// lands, which is exactly the hazard the reuse rule exists to prevent.
	headDurable uint64

	// Zero-allocation append scratch: PrepareAppend/Truncate encode into
	// these caller-visible buffers instead of allocating per record (see
	// the Write aliasing contract). scratchSlot holds the record (padded
	// to a full line under LineAligned — the pad bytes are written once at
	// zero and never touched again); the two metadata buffers keep a
	// head-sync write and a periodic tail-sync write alive in the same
	// batch; scratchWrites backs the returned slice (at most head-meta +
	// record + tail-meta).
	scratchSlot     [mem.LineSize]byte
	scratchHeadMeta [MetaSize]byte
	scratchTailMeta [MetaSize]byte
	scratchWrites   [3]Write
	// scratchEntry stages the entry handed to trace hooks: passing &e of
	// the parameter directly would make every call heap-allocate it, even
	// with tracing disabled (escape analysis is static).
	scratchEntry Entry

	// Statistics.
	appends   uint64
	truncates uint64
	grows     uint64
	metaSyncs uint64

	// trace, when non-nil, observes log lifecycle events. The log has no
	// notion of simulated time, so the installer (core.Engine or the
	// software-log path in sim) supplies a closure that stamps the
	// current cycle and forwards into the obs tracer.
	trace TraceFn
}

// TraceKind identifies which log event fired the trace hook.
type TraceKind int

const (
	// TraceAppend: one record claimed a slot. arg = sequence number.
	TraceAppend TraceKind = iota
	// TraceWrap: the append crossed into a new pass over the circular
	// buffer (slot reuse begins). arg = the pass index just entered.
	TraceWrap
	// TraceFull: an append found the buffer full (head-chase stall —
	// the producer must truncate or grow before retrying). arg = tail.
	TraceFull
	// TraceTruncate: the head advanced. arg = records truncated.
	TraceTruncate
)

// TraceFn observes one log event. e is the record involved for
// TraceAppend and TraceFull, nil otherwise.
type TraceFn func(k TraceKind, arg uint64, e *Entry)

// SetTrace installs (or with nil removes) the trace hook.
func (l *Log) SetTrace(fn TraceFn) { l.trace = fn }

// New creates an empty log over the region described by cfg. The returned
// Write persists the initial metadata block (log_create).
func New(cfg Config) (*Log, []Write, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	l := newLog(cfg, 0, 0)
	return l, []Write{l.metaWrite()}, nil
}

// Open reopens the log whose durable metadata sits at cfg.Base — freshly
// written by New's log_create, or left by recovery at the pointers it
// persisted (the sequence position must continue so torn-bit parity stays
// unambiguous). It writes nothing: the metadata is already durable.
func Open(img *mem.Physical, cfg Config) (*Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	meta, err := ReadMeta(img, cfg.Base)
	if err != nil {
		return nil, err
	}
	if meta.Capacity != cfg.Capacity() || meta.Style != cfg.Style || meta.LineAligned != cfg.LineAligned {
		return nil, fmt.Errorf("nvlog: metadata at %v does not describe the configured log", cfg.Base)
	}
	if meta.Head > meta.Tail || meta.Tail-meta.Head > meta.Capacity {
		return nil, fmt.Errorf("nvlog: pointers head=%d tail=%d invalid for capacity %d",
			meta.Head, meta.Tail, meta.Capacity)
	}
	return newLog(cfg, meta.Head, meta.Tail), nil
}

// newLog is the constructor New and Open share.
func newLog(cfg Config, head, tail uint64) *Log {
	if cfg.MetaEvery == 0 {
		cfg.MetaEvery = cfg.Capacity() / 4
		if cfg.MetaEvery == 0 {
			cfg.MetaEvery = 1
		}
	}
	return &Log{cfg: cfg, head: head, tail: tail, headDurable: head}
}

// Config returns the log configuration.
func (l *Log) Config() Config { return l.cfg }

// Capacity returns the slot count.
func (l *Log) Capacity() uint64 { return l.cfg.Capacity() }

// Head returns the head sequence number (oldest live record).
func (l *Log) Head() uint64 { return l.head }

// Tail returns the tail sequence number (next append slot).
func (l *Log) Tail() uint64 { return l.tail }

// Len returns the number of live records.
func (l *Log) Len() uint64 { return l.tail - l.head }

// Full reports whether the next append would overwrite a live record.
func (l *Log) Full() bool { return l.Len() == l.Capacity() }

// Occupancy returns Len/Capacity in [0,1].
func (l *Log) Occupancy() float64 { return float64(l.Len()) / float64(l.Capacity()) }

// SlotAddr returns the NVRAM address of the record with sequence seq.
func (l *Log) SlotAddr(seq uint64) mem.Addr {
	return l.cfg.Base + MetaSize + mem.Addr((seq%l.Capacity())*l.cfg.SlotSize())
}

func (l *Log) pass(seq uint64) uint64 { return seq / l.Capacity() }

func (l *Log) metaWrite() Write {
	return l.metaWriteInto(make([]byte, MetaSize))
}

// metaWriteInto encodes the metadata block into buf (MetaSize bytes,
// typically one of the Log's scratch buffers) and returns the Write.
func (l *Log) metaWriteInto(buf []byte) Write {
	buf[0] = magic0
	buf[1] = magic1
	putWord(buf[8:16], mem.Word(l.head))
	putWord(buf[16:24], mem.Word(l.tail))
	putWord(buf[24:32], mem.Word(l.Capacity()))
	buf[32] = byte(l.cfg.Style)
	if l.cfg.LineAligned {
		buf[33] = 1
	} else {
		buf[33] = 0
	}
	l.metaSyncs++
	return Write{Addr: l.cfg.Base, Bytes: buf}
}

// PrepareAppend assigns the next slot to e and returns the functional
// writes that make it durable (the record itself, plus a periodic tail
// metadata sync). ErrFull means the caller must truncate or grow first.
func (l *Log) PrepareAppend(e Entry) ([]Write, error) {
	if l.Full() {
		if l.trace != nil {
			l.scratchEntry = e
			l.trace(TraceFull, l.tail, &l.scratchEntry)
		}
		return nil, ErrFull
	}
	seq := l.tail
	if l.trace != nil {
		if seq > 0 && seq%l.Capacity() == 0 {
			l.trace(TraceWrap, l.pass(seq), nil)
		}
		l.scratchEntry = e
		l.trace(TraceAppend, seq, &l.scratchEntry)
	}
	writes := l.scratchWrites[:0]
	// Reusing a slot that a post-crash scan would still trust (its old
	// sequence number is at or past the last BARRIERED durable head)
	// requires persisting the advanced head first. CONTRACT: when the
	// returned writes begin with a metadata write followed by the record,
	// the caller must wait for the metadata write's completion before
	// issuing the record (core.Engine.append and the software append path
	// both do). Only then may headDurable advance.
	if seq >= l.Capacity() && seq-l.Capacity() >= l.headDurable {
		l.truncReserved = 0
		writes = append(writes, l.metaWriteInto(l.scratchHeadMeta[:]))
		l.headDurable = l.head
	}
	// A padded (LineAligned) entry is written as its full line-sized
	// struct; EncodeInto covers every entry byte and the scratch pad
	// bytes beyond it are permanently zero, so slot reuse is exact.
	payload := l.scratchSlot[:l.cfg.SlotSize()]
	EncodeInto(payload, e, l.cfg.Style, l.pass(seq))
	w := Write{Addr: l.SlotAddr(seq), Bytes: payload}
	l.tail++
	l.appends++
	l.appendsSince++
	writes = append(writes, w)
	if l.appendsSince >= l.cfg.MetaEvery {
		l.appendsSince = 0
		writes = append(writes, l.metaWriteInto(l.scratchTailMeta[:]))
	}
	return writes, nil
}

// Truncate advances the head past n consumed records (the paper's
// log_truncate). The head pointer is persisted lazily — every MetaEvery
// truncated records — because a stale durable head is recovery-safe:
// records before the volatile head were truncatable (committed and with
// durable data), and redoing a committed record during recovery is
// idempotent. Slots are only reused once the volatile head has passed
// them, and any colliding append's metadata sync drains first (FIFO), so
// the durable window never contains overwritten slots.
func (l *Log) Truncate(n uint64) ([]Write, error) {
	if n > l.Len() {
		return nil, fmt.Errorf("nvlog: truncate %d > live %d", n, l.Len())
	}
	l.head += n
	l.truncates++
	l.truncReserved += n
	if l.trace != nil {
		l.trace(TraceTruncate, n, nil)
	}
	if l.truncReserved >= l.cfg.MetaEvery {
		l.truncReserved = 0
		writes := l.scratchWrites[:0]
		writes = append(writes, l.metaWriteInto(l.scratchTailMeta[:]))
		return writes, nil
	}
	return nil, nil
}

// Grow migrates the log to a new, larger region (the paper's log_grow,
// invoked when an uncommitted transaction fills the log). Live records are
// re-encoded into the new region starting at sequence zero. A hardware
// implementation chains regions via extra head/tail registers; migration
// preserves the same observable behaviour (no record is lost) at a cost
// charged through the returned writes. The caller supplies the image so
// live records can be read back.
func (l *Log) Grow(img *mem.Physical, newCfg Config) ([]Write, error) {
	if err := newCfg.Validate(); err != nil {
		return nil, err
	}
	if newCfg.Style != l.cfg.Style {
		return nil, errors.New("nvlog: grow cannot change style")
	}
	if newCfg.Capacity() <= l.Capacity() {
		return nil, errors.New("nvlog: grow must increase capacity")
	}
	if newCfg.MetaEvery == 0 {
		newCfg.MetaEvery = newCfg.Capacity() / 4
	}

	var writes []Write
	oldHead, oldTail := l.head, l.tail
	oldLog := *l // copy for slot math
	l.cfg = newCfg
	l.head, l.tail = 0, 0
	l.appendsSince = 0
	// The new region starts a fresh sequence space: every reuse watermark
	// must restart with it, or post-grow slot reuse would skip the
	// sync-before-reuse barrier.
	l.headDurable = 0
	l.truncReserved = 0
	for seq := oldHead; seq < oldTail; seq++ {
		raw := img.Read(oldLog.SlotAddr(seq), int(oldLog.cfg.Style.EntrySize()))
		e, _, ok := Decode(raw, oldLog.cfg.Style)
		if !ok {
			return nil, fmt.Errorf("nvlog: grow found corrupt record at seq %d", seq)
		}
		ws, err := l.PrepareAppend(e)
		if err != nil {
			return nil, err
		}
		// PrepareAppend's writes alias the log's scratch buffers and expire
		// at the next call; migration accumulates across calls, so deep-copy
		// (grow is a cold path — allocation is fine here).
		for _, w := range ws {
			writes = append(writes, Write{Addr: w.Addr, Bytes: append([]byte(nil), w.Bytes...)})
		}
	}
	l.grows++
	writes = append(writes, l.metaWrite())
	return writes, nil
}

// Stats reports log activity counters.
type Stats struct {
	Appends   uint64
	Truncates uint64
	Grows     uint64
	MetaSyncs uint64
}

// Stats returns a copy of the counters.
func (l *Log) Stats() Stats {
	return Stats{Appends: l.appends, Truncates: l.truncates, Grows: l.grows, MetaSyncs: l.metaSyncs}
}

// --- Recovery-side helpers (read the NVRAM image directly) ---

// Meta is the durable log metadata recovered after a crash.
type Meta struct {
	Head, Tail  uint64 // persisted pointers (tail may lag the true tail)
	Capacity    uint64
	Style       Style
	LineAligned bool
	// Forward is the base address of the region this log migrated to via
	// log_grow (0 = this region is active). Recovery follows it.
	Forward mem.Addr
}

// SlotSize returns the per-record slot size recorded in the metadata.
func (m Meta) SlotSize() uint64 {
	if m.LineAligned {
		return mem.LineSize
	}
	return m.Style.EntrySize()
}

// ReadMeta parses the metadata block at base from a (post-crash) image.
func ReadMeta(img *mem.Physical, base mem.Addr) (Meta, error) {
	if !img.Contains(base, MetaSize) {
		return Meta{}, fmt.Errorf("nvlog: metadata at %v lies outside the image", base)
	}
	buf := img.Read(base, MetaSize)
	if buf[0] != magic0 || buf[1] != magic1 {
		return Meta{}, errors.New("nvlog: bad metadata magic")
	}
	return Meta{
		Head:        uint64(getWord(buf[8:16])),
		Tail:        uint64(getWord(buf[16:24])),
		Capacity:    uint64(getWord(buf[24:32])),
		Style:       Style(buf[32]),
		LineAligned: buf[33] == 1,
		Forward:     mem.Addr(getWord(buf[40:48])),
	}, nil
}

// ForwardWrite builds the metadata update that redirects a region to its
// log_grow successor: recovery reading the old region's metadata follows
// Forward to the active region. The caller must make this write durable
// (drain to completion) before any append lands in the new region.
func ForwardWrite(img *mem.Physical, oldBase, newBase mem.Addr) Write {
	buf := img.Read(oldBase, MetaSize)
	putWord(buf[40:48], mem.Word(newBase))
	return Write{Addr: oldBase, Bytes: buf}
}

// Scan reads the live records from a post-crash image: starting at the
// durable head, it accepts records while they decode cleanly with the
// expected torn-bit parity — the paper's "completely-written log records
// all have the same torn bit value" rule — and stops at the first hole,
// even before the persisted tail. (Drain issue order is FIFO but
// completions may interleave across NVRAM banks, so a record write can be
// lost in a crash while a later one — including the tail metadata —
// survives.) Stopping at the hole is safe: the log-before-data interlock
// makes every data write-back and every durable-commit fence wait for the
// *completion* of all earlier record writes, so a store whose record fell
// into a hole can have neither stolen its way into NVRAM nor been part of
// a durably-acknowledged commit. It returns the records in append order
// along with the discovered true tail; a slot range that does not fit in
// the image is an error.
func Scan(img *mem.Physical, base mem.Addr, meta Meta) ([]Entry, uint64, error) {
	if meta.Capacity == 0 {
		return nil, 0, errors.New("nvlog: zero capacity in metadata")
	}
	entrySize := meta.Style.EntrySize()
	slotSize := meta.SlotSize()
	if meta.Capacity > img.Size()/slotSize || !img.Contains(base, MetaSize+int(meta.Capacity*slotSize)) {
		return nil, 0, fmt.Errorf("nvlog: %d slots of %d bytes at %v lie outside the image", meta.Capacity, slotSize, base)
	}
	slotAddr := func(seq uint64) mem.Addr {
		return base + MetaSize + mem.Addr((seq%meta.Capacity)*slotSize)
	}
	expectPass := func(seq uint64) uint8 { return uint8(seq / meta.Capacity) }

	var out []Entry
	seq := meta.Head
	for seq < meta.Head+meta.Capacity {
		e, pass, ok := Decode(img.Read(slotAddr(seq), int(entrySize)), meta.Style)
		if !ok || pass != expectPass(seq) {
			break
		}
		out = append(out, e)
		seq++
	}
	return out, seq, nil
}

// Region is one log region as recovery reads it from a post-crash image.
type Region struct {
	// Base is where the log durably lives: the base the walk was given,
	// or the end of its log_grow forward chain.
	Base mem.Addr
	// Hops counts the completed grows followed to reach Base.
	Hops int
	Meta Meta
	// Entries and TrueTail are Scan's result over Base (Walk only).
	Entries  []Entry
	TrueTail uint64
}

// Config describes r's live region as its metadata records it.
func (r Region) Config() Config {
	return Config{Base: r.Base, SizeBytes: MetaSize + r.Meta.Capacity*r.Meta.SlotSize(),
		Style: r.Meta.Style, LineAligned: r.Meta.LineAligned}
}

// Resolve reads the metadata at base and, when log_grow migrated the
// region away, follows the durable forward pointers to its successor
// (bounded — each hop is one completed grow). A grow whose forward write
// never became durable is not followed: the log still lives at base.
// A base or forward pointer outside the image is an error, not a fault.
func Resolve(img *mem.Physical, base mem.Addr) (Region, error) {
	r := Region{Base: base}
	var err error
	if r.Meta, err = ReadMeta(img, base); err != nil {
		return r, err
	}
	for r.Meta.Forward != 0 {
		r.Hops++
		if r.Hops > 64 {
			return r, fmt.Errorf("nvlog: forward chain too long from %v", base)
		}
		r.Base = r.Meta.Forward
		if r.Meta, err = ReadMeta(img, r.Base); err != nil {
			return r, err
		}
	}
	return r, nil
}

// Walk is the one definition of "what recovery would read": every base is
// resolved to its live region and scanned, in bases order. Recovery, the
// flight doctor and the scope residency pass all read the log through it,
// so none of them can trust a record the others would not.
func Walk(img *mem.Physical, bases []mem.Addr) ([]Region, error) {
	regions := make([]Region, 0, len(bases))
	for _, base := range bases {
		r, err := Resolve(img, base)
		if err != nil {
			return nil, err
		}
		if r.Entries, r.TrueTail, err = Scan(img, r.Base, r.Meta); err != nil {
			return nil, err
		}
		regions = append(regions, r)
	}
	return regions, nil
}
