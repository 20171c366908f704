// Package memctl models the memory controller between the cache hierarchy
// and the hybrid DRAM+NVRAM main memory (paper Figure 3(a)): read/write
// queues (Table II: 64/64 entries), a write-combining buffer (WCB) for
// uncacheable stores, and the paper's optional volatile log buffer — a
// FIFO that coalesces and drains hardware log records to NVRAM
// (Section IV-C).
//
// The controller is the single point where functional NVRAM state changes
// (Controller.write), which makes crash simulation exact: every timed
// NVRAM write is applied eagerly to the image but recorded with its
// completion cycle and prior contents, so a crash at cycle C reverts
// precisely the writes that had not yet reached the DIMM.
// Buffered-but-undrained WCB/log-buffer contents are simply discarded,
// exactly like a real volatile buffer losing power.
package memctl

import (
	"fmt"
	"math/bits"

	"pmemlog/internal/chaos"
	"pmemlog/internal/dram"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvram"
	"pmemlog/internal/obs"
)

// Config describes the controller.
type Config struct {
	ReadQueue  int // outstanding read capacity (Table II: 64)
	WriteQueue int // outstanding write capacity (Table II: 64)
	// WCBEntries is the write-combining buffer capacity for uncacheable
	// stores (paper Section II-B: "four to six cache-line sized entries").
	WCBEntries int
	// LogBufferEntries is the hardware log buffer capacity (Section IV-C;
	// Fig 11a sweeps 0..256). 0 disables buffering: log records go straight
	// to the NVRAM bus.
	LogBufferEntries int
	// QueueCycles is the fixed controller overhead per request.
	QueueCycles uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ReadQueue <= 0 || c.WriteQueue <= 0 {
		return fmt.Errorf("memctl: queue sizes must be positive")
	}
	if c.WCBEntries < 0 || c.LogBufferEntries < 0 {
		return fmt.Errorf("memctl: buffer sizes must be non-negative")
	}
	return nil
}

// Stats aggregates controller counters. Log and data traffic are separated
// because Figure 9/10 report NVRAM write traffic and its composition.
type Stats struct {
	DataReads      uint64
	DataWrites     uint64
	DataReadBytes  uint64
	DataWriteBytes uint64
	LogWrites      uint64 // NVRAM bus transfers carrying log records
	LogWriteBytes  uint64
	LogCoalesced   uint64 // log records merged into an open buffer slot
	WCBDrains      uint64
	LogBufStalls   uint64 // appends that waited for a full log buffer
	CrashReverts   uint64 // writes undone by the last crash
}

// writeKind classifies an NVRAM write by what a crash can do to it.
type writeKind uint8

const (
	untimed   writeKind = iota // no completion cycle: applied, kept nowhere
	logWrite                   // a drained log-buffer or WCB slot: torn-log-line tears these
	dataWrite                  // a dirty line write-back
)

// pendingWrite records an eagerly-applied timed NVRAM write for crash
// revert. The prior contents live in a fixed line-sized array (a timed
// write never crosses a line), so recording a write allocates nothing
// once the pending slice's capacity has warmed up.
type pendingWrite struct {
	start uint64 // cycle the NVRAM bus transfer began
	done  uint64
	addr  mem.Addr
	n     int
	kind  writeKind
	old   [mem.LineSize]byte
}

// resource models k servers each busy for the duration of one request
// (bounded read/write queues): a request arriving at now starts when the
// earliest-free slot opens; commit records its completion.
type resource struct {
	free []uint64 // completion times per slot
	last int      // slot chosen by the latest start()
}

func newResource(k int) *resource { return &resource{free: make([]uint64, k)} }

// start returns the earliest start time for a request arriving at now,
// choosing the earliest-free queue slot.
func (r *resource) start(now uint64) uint64 {
	best := 0
	for i := 1; i < len(r.free); i++ {
		if r.free[i] < r.free[best] {
			best = i
		}
	}
	r.last = best
	if r.free[best] > now {
		return r.free[best]
	}
	return now
}

// commit marks the slot chosen by the preceding start busy until done.
func (r *resource) commit(done uint64) {
	r.free[r.last] = done
}

func (r *resource) reset() {
	for i := range r.free {
		r.free[i] = 0
	}
	r.last = 0
}

// wslot is one open line in a write-combining buffer.
type wslot struct {
	line  mem.Addr
	data  mem.Line
	mask  uint64 // bit i set => byte i valid
	since uint64 // enqueue cycle of the first record
}

// wbuf is a fixed-capacity FIFO of write-combining slots. A slice
// re-sliced at the head (buf = buf[1:]; append) leaks one capacity slot
// per displacement and reallocates every ~capacity appends; the ring
// reuses its backing array forever, keeping the append path
// allocation-free in steady state.
type wbuf struct {
	slots []wslot
	head  int // index of the oldest slot
	n     int
}

func newWbuf(capacity int) wbuf { return wbuf{slots: make([]wslot, capacity)} }

func (b *wbuf) at(i int) *wslot { return &b.slots[(b.head+i)%len(b.slots)] }

func (b *wbuf) newest() *wslot { return b.at(b.n - 1) }

// popFront removes and returns (by value) the oldest slot.
func (b *wbuf) popFront() wslot {
	s := b.slots[b.head]
	b.head = (b.head + 1) % len(b.slots)
	b.n--
	return s
}

// pushBack claims the next slot, zeroed and ready to fill.
func (b *wbuf) pushBack() *wslot {
	s := b.at(b.n)
	b.n++
	*s = wslot{}
	return s
}

func (b *wbuf) reset() { b.head, b.n = 0, 0 }

// Controller is the memory controller.
type Controller struct {
	cfg Config
	nv  *nvram.Device
	dr  *dram.Device

	rdQ, wrQ *resource

	wcb    wbuf // software uncacheable-store buffer (FIFO ring)
	logbuf wbuf // hardware log buffer (FIFO ring)

	maxDrainDone uint64 // completion high-water mark of ALL issued drains

	pending  []pendingWrite
	retained int // len(pending) after the last Retire trim

	// chaos, when armed via SetChaos (sim construction only — pmlint's
	// chaosonly rule), injects torn log lines and partial drains at
	// crash time and write-back completion delays in flight.
	chaos *chaos.Injector

	// tracer observes drains, stalls, and data write-backs (nil or
	// disabled: one branch per event site).
	tracer    *obs.Tracer
	traceRing int

	stats Stats
}

// SetTracer attaches (or with nil detaches) the obs tracer. ring is the
// ring index controller events land in (the machine ring by
// convention — buffer drains belong to no thread).
func (c *Controller) SetTracer(t *obs.Tracer, ring int) {
	c.tracer = t
	c.traceRing = ring
}

// New creates a controller over the given devices.
func New(cfg Config, nv *nvram.Device, dr *dram.Device) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg: cfg, nv: nv, dr: dr,
		rdQ:    newResource(cfg.ReadQueue),
		wrQ:    newResource(cfg.WriteQueue),
		wcb:    newWbuf(cfg.WCBEntries),
		logbuf: newWbuf(cfg.LogBufferEntries),
	}, nil
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// NVRAM returns the persistent device.
func (c *Controller) NVRAM() *nvram.Device { return c.nv }

// SetChaos arms (or with nil disarms) the fault injector. Only the sim
// layer's construction path may call this — never production server
// defaults (enforced by pmlint's chaosonly rule).
func (c *Controller) SetChaos(in *chaos.Injector) { c.chaos = in }

func (c *Controller) isNVRAM(addr mem.Addr) bool {
	return c.nv.Image().Contains(addr.Line(), mem.LineSize)
}

// write is the one function through which the machine changes its NVRAM
// image. An untimed write — the boot format, population, image-save
// points, crash reverts, a drain burst power loss catches mid-way —
// applies bytes at addr and is kept nowhere. A timed write (log or data)
// applies the bytes of the line at addr that mask selects: it takes the
// write queue from issue, occupies the DIMM for those bytes, and records
// each contiguous run of them with its start and completion cycles and the
// bytes it replaced, so that a crash before the completion reverts it. It
// returns the completion cycle (issue when untimed).
func (c *Controller) write(issue uint64, addr mem.Addr, bytes []byte, mask uint64, kind writeKind) uint64 {
	img := c.nv.Image()
	if kind == untimed {
		img.Write(addr, bytes)
		return issue
	}
	start := c.wrQ.start(issue)
	done := c.nv.Access(start, addr, true, bits.OnesCount64(mask))
	if kind == dataWrite {
		if extra, ok := c.chaos.HitArg(chaos.SiteDelayWB, uint64(addr)); ok {
			// Chaos: this write-back completes late, reordering durability
			// across banks. Truncation gates on LineWriteDone, so a delayed
			// completion must only delay truncation, never corrupt it.
			done += extra
		}
	}
	c.wrQ.commit(done)
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		n := bits.TrailingZeros64(^(m >> i)) // the run of selected bytes from i
		m &^= (1<<n - 1) << i
		c.pending = append(c.pending, pendingWrite{start: start, done: done, addr: addr + mem.Addr(i), n: n, kind: kind})
		img.ReadInto(addr+mem.Addr(i), c.pending[len(c.pending)-1].old[:n])
		img.Write(addr+mem.Addr(i), bytes[i:i+n])
	}
	return done
}

// WriteUntimed applies bytes at addr with no completion cycle, so no crash
// reverts them: log_create's format, setup-time population and a service's
// image-save-point words.
func (c *Controller) WriteUntimed(addr mem.Addr, bytes []byte) {
	c.write(0, addr, bytes, 0, untimed)
}

// LoadImage replaces the whole NVRAM image with img, of identical geometry
// (re-attaching a saved DIMM before anything runs).
func (c *Controller) LoadImage(img *mem.Physical) error {
	return c.nv.Image().CopyFrom(img)
}

// FetchLine implements cache.Backing: a demand line read.
func (c *Controller) FetchLine(now uint64, addr mem.Addr, dst *mem.Line) uint64 {
	addr = addr.Line()
	now += c.cfg.QueueCycles
	if c.isNVRAM(addr) {
		c.nv.Image().ReadLine(addr, dst)
		start := c.rdQ.start(now)
		done := c.nv.Access(start, addr, false, mem.LineSize)
		c.rdQ.commit(done)
		c.stats.DataReads++
		c.stats.DataReadBytes += mem.LineSize
		return done
	}
	c.dr.Image().ReadLine(addr, dst)
	return c.dr.Access(now, addr, false, mem.LineSize)
}

// WriteBackLine implements cache.Backing: a (posted) dirty line write-back.
func (c *Controller) WriteBackLine(now uint64, addr mem.Addr, src *mem.Line) uint64 {
	addr = addr.Line()
	now += c.cfg.QueueCycles
	if c.isNVRAM(addr) {
		// Log-before-data invariant (paper Section IV-C): every buffered
		// log record must reach NVRAM before any working-data line does.
		// Draining here is the conservative hardware interlock that makes
		// the invariant hold even for pathologically fast evictions.
		if d := c.DrainBuffers(now); d > now {
			now = d
		}
		done := c.write(now, addr, src[:], ^uint64(0), dataWrite)
		c.stats.DataWrites++
		c.stats.DataWriteBytes += mem.LineSize
		c.tracer.Emit(c.traceRing, done, obs.KindWriteBack, 0, uint64(addr))
		return done
	}
	c.dr.Image().WriteLine(addr, src)
	return c.dr.Access(now, addr, true, mem.LineSize)
}

// drainSlot issues one buffered line to NVRAM and returns the completion
// cycle. The drain can never begin before the slot's latest enqueue time:
// with per-thread local clocks, a thread whose clock lags may trigger the
// drain, but the entry physically did not exist before it was buffered.
// Drains do NOT serialize on one another beyond real device contention
// (queue, banks, bus): recovery's hole-stopping scan is sound under any
// completion order, so imposing a cross-slot issue chain would only
// manufacture phantom stalls out of virtual-clock skew.
func (c *Controller) drainSlot(now uint64, s *wslot) uint64 {
	start := max(now, s.since)
	// The NVRAM transfer moves only the accumulated bytes (a partially
	// filled WCB entry is a partial write).
	if s.mask == 0 {
		return start
	}
	done := c.write(start, s.line, s.data[:], s.mask, logWrite)
	c.tracer.Emit(c.traceRing, done, obs.KindBufDrain, 0, uint64(s.line))
	if done > c.maxDrainDone {
		c.maxDrainDone = done
	}
	return done
}

// appendBuffered implements the shared WCB / log-buffer behaviour:
// coalesce into an open slot for the same line, otherwise take a free
// slot, otherwise drain the oldest slot (FIFO) and reuse it. Returns the
// cycle at which the producer may continue (backpressure when the NVRAM
// write bandwidth is saturated, the effect Figure 11(a) sweeps).
func (c *Controller) appendBuffered(buf *wbuf, capacity int,
	now uint64, addr mem.Addr, bytes []byte, coalesced *uint64) uint64 {

	if !c.isNVRAM(addr) {
		panic(fmt.Sprintf("memctl: uncacheable buffered write to non-NVRAM address %v", addr))
	}
	line := addr.Line()
	off := addr.LineOffset()
	if off+len(bytes) > mem.LineSize {
		panic(fmt.Sprintf("memctl: buffered write %v+%d crosses a line", addr, len(bytes)))
	}

	// Unbuffered configuration: straight to the NVRAM bus, producer waits.
	if capacity == 0 {
		var s wslot
		s.line = line
		s.since = now
		copy(s.data[off:], bytes)
		for i := 0; i < len(bytes); i++ {
			s.mask |= 1 << uint(off+i)
		}
		return c.drainSlot(now, &s)
	}

	// Coalesce into the newest open slot only: merging into older slots
	// would reorder drains and could leave holes in the log's record
	// sequence after a crash, breaking the torn-bit recovery scan.
	if buf.n > 0 {
		if s := buf.newest(); s.line == line {
			copy(s.data[off:], bytes)
			for b := 0; b < len(bytes); b++ {
				s.mask |= 1 << uint(off+b)
			}
			if now > s.since {
				s.since = now // the slot now carries data created at `now`
			}
			if coalesced != nil {
				*coalesced++
			}
			return now + 1
		}
	}

	stall := now
	if buf.n >= capacity {
		// FIFO displacement: drain the oldest slot. The producer stalls
		// until the drain *starts* (the slot is then free) — which can
		// exceed `now` only when the write queue itself is saturated.
		drainStart := c.wrQ.start(now)
		if drainStart > now {
			c.stats.LogBufStalls++
			c.tracer.Emit(c.traceRing, now, obs.KindBufStall, 0, drainStart-now)
		}
		oldest := buf.popFront()
		c.drainSlot(now, &oldest)
		stall = drainStart
	}
	s := buf.pushBack()
	s.line = line
	s.since = now
	copy(s.data[off:], bytes)
	for i := 0; i < len(bytes); i++ {
		s.mask |= 1 << uint(off+i)
	}
	return stall + 1
}

// UncacheableWrite sends a software store around the caches through the
// WCB (the path software logging uses for its uncacheable log updates,
// Section II-B). Returns the cycle the store leaves the core.
func (c *Controller) UncacheableWrite(now uint64, addr mem.Addr, bytes []byte) uint64 {
	done := c.appendBuffered(&c.wcb, c.cfg.WCBEntries, now, addr, bytes, &c.stats.LogCoalesced)
	c.stats.LogWrites++
	c.stats.LogWriteBytes += uint64(len(bytes))
	return done
}

// AppendLog sends a hardware log record through the log buffer
// (Section IV-C). Returns the cycle the record is accepted — the HWL
// engine's only stall point.
func (c *Controller) AppendLog(now uint64, addr mem.Addr, bytes []byte) uint64 {
	done := c.appendBuffered(&c.logbuf, c.cfg.LogBufferEntries, now, addr, bytes, &c.stats.LogCoalesced)
	c.stats.LogWrites++
	c.stats.LogWriteBytes += uint64(len(bytes))
	return done
}

// DrainBuffers flushes the WCB and the log buffer (memory barrier / fence
// semantics) and returns the cycle everything — including drains issued
// earlier by displacement that are still in flight across banks — is
// durable in NVRAM. Waiting on the completion high-water mark is what lets
// the recovery scan stop at the first hole: a durably-acknowledged commit
// (or a data write-back, which uses the same interlock) can never be
// ordered after a lost record.
func (c *Controller) DrainBuffers(now uint64) uint64 {
	for i := 0; i < c.wcb.n; i++ {
		c.drainSlot(now, c.wcb.at(i))
		c.stats.WCBDrains++
	}
	c.wcb.reset()
	for i := 0; i < c.logbuf.n; i++ {
		c.drainSlot(now, c.logbuf.at(i))
	}
	c.logbuf.reset()
	if c.maxDrainDone > now {
		return c.maxDrainDone
	}
	return now
}

// LineWriteDone returns the latest completion cycle among NVRAM writes to
// addr's line that complete after cycle after, or after if none does. Log
// truncation needs LineWriteDone(addr, now) == now: a line is only durable
// once its write-back has actually reached the DIMM.
func (c *Controller) LineWriteDone(addr mem.Addr, after uint64) uint64 {
	line := addr.Line()
	for i := range c.pending {
		p := &c.pending[i]
		if p.done <= after || p.addr.Line() != line {
			continue // nearly every entry; a loop that only branches scans fastest
		}
		after = p.done
	}
	return after
}

// Retire discards revert records for writes complete by safeCycle: no
// crash can revert them. The caller never passes a cycle beyond a
// scheduled crash. The record is trimmed only once it has more than
// doubled since the last trim, so it stays near the writes in flight and
// trimming costs amortized O(1) per write.
func (c *Controller) Retire(safeCycle uint64) {
	if len(c.pending) <= 2*c.retained {
		return
	}
	kept := c.pending[:0]
	for i := range c.pending {
		if c.pending[i].done > safeCycle {
			kept = append(kept, c.pending[i])
		}
	}
	c.pending = kept
	c.retained = len(kept)
}

// Crash simulates power loss at the given cycle: buffered-but-undrained
// WCB/log-buffer contents vanish, and every NVRAM write whose DIMM transfer
// had not completed is reverted (in reverse application order, restoring
// overlapping writes correctly). Returns the number of reverted writes.
// DRAM contents are cleared by the caller via the dram device.
//
// With a chaos injector armed, power loss is made messier — strictly
// within the states the design claims to survive:
//
//   - torn-log-line: an in-flight log transfer keeps a random byte
//     prefix on the DIMM instead of reverting entirely (a partial line
//     burst at power loss). The torn-bit/magic/pass-stamp decode must
//     reject the fragment.
//   - partial-drain: a buffered-but-undrained log slot lands partially
//     in NVRAM, as if its drain had started and lost power mid-burst.
//
// Both only ever touch writes that were NOT durably acknowledged (the
// DrainBuffers high-water interlock orders every ack after its drains
// complete), so no injected state may cost an acked transaction.
func (c *Controller) Crash(atCycle uint64) int {
	if c.chaos != nil {
		c.chaosPartialDrains(atCycle)
	}
	c.wcb.reset()
	c.logbuf.reset()
	reverted := 0
	for i := len(c.pending) - 1; i >= 0; i-- {
		p := &c.pending[i]
		if p.done > atCycle {
			keep := 0
			// Tearing is physical only for a burst actually on the bus at
			// power loss: a write whose simulated START lies past the
			// crash cycle never reached the DIMM at all (the producer's
			// local clock ran ahead of the crash) and must revert whole —
			// a partial image of it would fabricate a transfer that never
			// began, e.g. clobbering a reused log slot whose reuse was
			// gated on a head persist that also never started.
			if p.kind == logWrite && p.n > mem.WordSize && p.start <= atCycle {
				if frac, ok := c.chaos.HitFrac(chaos.SiteTornLogLine, uint64(p.addr)); ok {
					// Keep a non-empty strict prefix of whole 8-byte
					// write units: the persistence domain tears at word
					// granularity, never inside a word.
					keep = 1 + int(frac*float64(p.n-1))
					keep &^= mem.WordSize - 1
					if keep == 0 {
						keep = mem.WordSize
					}
					if keep >= p.n {
						keep = p.n - mem.WordSize
					}
				}
			}
			c.write(0, p.addr+mem.Addr(keep), p.old[keep:p.n], 0, untimed)
			reverted++
		}
	}
	c.pending, c.retained = c.pending[:0], 0
	c.stats.CrashReverts += uint64(reverted)
	c.rdQ.reset()
	c.wrQ.reset()
	c.maxDrainDone = 0
	c.nv.ResetTiming()
	if c.dr != nil {
		c.dr.PowerLoss()
	}
	return reverted
}

// chaosPartialDrains lets power loss catch a log-buffer drain mid-burst:
// for each buffered slot the injector picks, a prefix of its valid bytes
// is applied to the image (untimed — the crash is final) before the
// buffers are discarded. Only masked bytes are touched, so a slot that
// coalesced behind an already-durable record can never corrupt that
// record's bytes.
func (c *Controller) chaosPartialDrains(atCycle uint64) {
	for i := 0; i < c.logbuf.n; i++ {
		s := c.logbuf.at(i)
		// A slot whose latest enqueue lies past the crash cycle was (at
		// least partly) buffered by a producer whose local clock ran
		// ahead of the power loss; architecturally those bytes never
		// entered the buffer, so the slot just vanishes.
		if s.since > atCycle {
			continue
		}
		frac, ok := c.chaos.HitFrac(chaos.SitePartialDrain, uint64(s.line))
		if !ok {
			continue
		}
		// The drain burst lands whole 8-byte write units: apply the
		// masked bytes of a strict prefix of the line's words, so the
		// torn state is one the persistence domain can really produce.
		keepWords := 1 + int(frac*float64(mem.WordsPerLine-2))
		if keepWords >= mem.WordsPerLine {
			keepWords = mem.WordsPerLine - 1
		}
		for b := 0; b < keepWords*mem.WordSize; b++ {
			if s.mask&(1<<uint(b)) == 0 {
				continue
			}
			c.write(0, s.line+mem.Addr(b), s.data[b:b+1], 0, untimed)
		}
	}
}
