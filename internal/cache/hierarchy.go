package cache

import (
	"fmt"

	"pmemlog/internal/chaos"
	"pmemlog/internal/mem"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/scope"
)

// Backing is the memory side of the hierarchy (implemented by the memory
// controller). FetchLine/WriteBackLine move real bytes and return the cycle
// at which the transfer completes. Eviction write-backs are posted (the
// core does not wait for them), but their completion time still matters for
// crash fidelity and bandwidth contention, which the controller models.
type Backing interface {
	FetchLine(now uint64, addr mem.Addr, dst *mem.Line) uint64
	WriteBackLine(now uint64, addr mem.Addr, src *mem.Line) uint64
}

// HierarchyConfig describes the cache tree: one private L1D per hardware
// thread and a shared last-level cache (Table II: 32 KB 8-way L1,
// 8 MB 16-way L2, 64 B lines).
type HierarchyConfig struct {
	NumCores int
	L1       Config
	L2       Config
}

// Validate reports configuration errors.
func (c HierarchyConfig) Validate() error {
	if c.NumCores <= 0 {
		return fmt.Errorf("cache: NumCores must be positive")
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	return c.L2.Validate()
}

// AccessResult reports where a memory operation was satisfied.
type AccessResult int

const (
	HitL1 AccessResult = iota
	HitL2
	HitRemoteL1 // satisfied by another core's private cache
	HitMemory
)

func (r AccessResult) String() string {
	switch r {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitRemoteL1:
		return "remoteL1"
	default:
		return "memory"
	}
}

// Hierarchy ties private L1s to a shared L2 over a Backing. Coherence is a
// minimal write-invalidate protocol: a line may be dirty in at most one L1;
// stores invalidate remote copies, loads of remotely-dirty lines demote the
// dirty copy into L2 first.
type Hierarchy struct {
	cfg     HierarchyConfig
	l1      []*Cache
	l2      *Cache
	l1Busy  []uint64
	l2Busy  uint64
	backing Backing

	// tracer observes FWB scan activity (nil or disabled: one branch).
	tracer    *obs.Tracer
	traceRing int

	// fwbCB is the write-back callback handed to each cache's FwbScan,
	// bound once at construction so periodic scans never allocate a
	// closure. It reads fwbNow and accumulates into fwbForced.
	fwbCB     func(addr mem.Addr, data *mem.Line) bool
	fwbNow    uint64
	fwbForced uint64

	// chaos, when armed via SetChaos (sim construction only), drops
	// forced write-backs: the scan skips the line, which stays dirty
	// and flagged for the next pass.
	chaos *chaos.Injector

	// scope is the persistence-domain cost ledger (nil = unscoped). The
	// hierarchy feeds its wasted-flush detector: forced write-backs, line
	// re-dirties and scan-pass boundaries. The forced write-back count
	// itself is each cache's Stats.FwbForced.
	scope *scope.Counters
}

// SetChaos arms (or with nil disarms) the fault injector (pmlint's
// chaosonly rule confines callers to the sim layer).
func (h *Hierarchy) SetChaos(in *chaos.Injector) { h.chaos = in }

// SetScope attaches (or with nil detaches) the persistence-domain cost
// ledger.
func (h *Hierarchy) SetScope(c *scope.Counters) { h.scope = c }

// SetTracer attaches (or with nil detaches) the obs tracer. ring is
// the ring index scan events land in (the machine ring by convention —
// FWB scans belong to the cache controller, not to any thread).
func (h *Hierarchy) SetTracer(t *obs.Tracer, ring int) {
	h.tracer = t
	h.traceRing = ring
}

// NewHierarchy builds the cache tree.
func NewHierarchy(cfg HierarchyConfig, backing Backing) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, backing: backing, l1Busy: make([]uint64, cfg.NumCores)}
	h.fwbCB = func(addr mem.Addr, data *mem.Line) bool {
		if h.chaos.Hit(chaos.SiteDropFWB, uint64(addr)) {
			// Chaos: the forced write-back is dropped. Returning false
			// leaves the line dirty+flagged, so the next scan retries it;
			// truncation keeps waiting on DirtyAnywhere/LineWriteDone.
			return false
		}
		h.writeBack(h.fwbNow, addr, data)
		h.fwbForced++
		h.scope.NoteForcedWB(uint64(addr))
		h.tracer.Emit(h.traceRing, h.fwbNow, obs.KindFwbForced, 0, uint64(addr))
		return true
	}
	for i := 0; i < cfg.NumCores; i++ {
		c, err := New(cfg.L1)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, c)
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	h.l2 = l2
	return h, nil
}

// L1 returns core's private cache (stats/tests).
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// L2 returns the shared cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// writeBack posts a dirty line to the backing and returns the write's
// completion cycle. The caller leaves the line valid-clean, so it can later
// be evicted silently and L2 will serve its own copy of the line; that
// copy (when there is one, and data is not it) is therefore refreshed
// here. Data moves, no cycle is charged: the L2 copy's dirty bit and LRU
// position are untouched.
func (h *Hierarchy) writeBack(now uint64, addr mem.Addr, data *mem.Line) uint64 {
	done := h.backing.WriteBackLine(now, addr.Line(), data)
	if l2 := h.l2.resident(addr); l2 != nil && l2 != data {
		*l2 = *data
	}
	return done
}

// installL1 places a line into core's L1 and routes any displaced dirty
// victim down into L2 (and L2's victim to memory).
func (h *Hierarchy) installL1(now uint64, core int, addr mem.Addr, data *mem.Line, dirty bool) {
	v, evicted := h.l1[core].Install(addr, data, dirty)
	if evicted && v.Dirty {
		h.installL2(now, v.Addr, &v.Data, true)
	}
}

// installL2 places a line into L2, writing any displaced dirty victim back
// to memory as a posted write.
func (h *Hierarchy) installL2(now uint64, addr mem.Addr, data *mem.Line, dirty bool) {
	v, evicted := h.l2.Install(addr, data, dirty)
	if evicted && v.Dirty {
		h.backing.WriteBackLine(now, v.Addr, &v.Data)
	}
}

// demoteRemote checks whether any L1 other than core holds addr dirty; if
// so the dirty copy is moved into L2 (cleaned in place for loads, fully
// invalidated for stores) so the requesting core sees up-to-date data.
func (h *Hierarchy) demoteRemote(now uint64, core int, addr mem.Addr, invalidate bool) bool {
	found := false
	for i, c := range h.l1 {
		if i == core {
			continue
		}
		present, dirty := c.Probe(addr)
		if !present {
			continue
		}
		if dirty {
			if data, ok := c.DirtyLine(addr); ok {
				h.installL2(now, addr.Line(), data, true)
			}
			found = true
		}
		if invalidate {
			c.Invalidate(addr)
		} else if dirty {
			c.CleanLine(addr)
		}
	}
	return found
}

func (h *Hierarchy) startL1(now uint64, core int) uint64 {
	if h.l1Busy[core] > now {
		now = h.l1Busy[core]
	}
	return now
}

func (h *Hierarchy) startL2(now uint64) uint64 {
	if h.l2Busy > now {
		now = h.l2Busy
	}
	return now
}

// fetchIntoL1 brings addr's line into core's L1 (write-allocate path),
// returning a pointer to the resident line, the completion cycle, and
// where the data came from.
func (h *Hierarchy) fetchIntoL1(now uint64, core int, addr mem.Addr, forStore bool) (*mem.Line, uint64, AccessResult) {
	start := h.startL1(now, core)
	t := start + h.cfg.L1.HitCycles
	if data, ok := h.l1[core].Lookup(addr); ok {
		if forStore {
			// A store hit must still invalidate remote clean copies.
			h.demoteRemote(t, core, addr, true)
		}
		return data, t, HitL1
	}
	h.l1[core].CountMiss()

	// Coherence: pull a remotely-dirty copy down into L2 first.
	remote := h.demoteRemote(t, core, addr, forStore)

	t = h.startL2(t) + h.cfg.L2.HitCycles
	if data, ok := h.l2.Lookup(addr); ok {
		cp := *data
		h.installL1(t, core, addr.Line(), &cp, false)
		res := HitL2
		if remote {
			res = HitRemoteL1
		}
		return h.l1[core].resident(addr), t, res
	}
	h.l2.CountMiss()

	var buf mem.Line
	t = h.backing.FetchLine(t, addr.Line(), &buf)
	h.installL2(t, addr.Line(), &buf, false)
	h.installL1(t, core, addr.Line(), &buf, false)
	return h.l1[core].resident(addr), t, HitMemory
}

// LoadWord performs a cached load of the word containing addr, returning
// its value, the completion cycle, and the satisfying level.
func (h *Hierarchy) LoadWord(now uint64, core int, addr mem.Addr) (mem.Word, uint64, AccessResult) {
	line, done, res := h.fetchIntoL1(now, core, addr, false)
	return line.Word(addr.WordIndex()), done, res
}

// StoreWord performs a cached write-allocate store, returning the OLD word
// value — the undo information the HWL mechanism extracts from the hitting
// or write-allocated cache line (paper Figure 3(b)/(c)) — plus the
// completion cycle and satisfying level.
func (h *Hierarchy) StoreWord(now uint64, core int, addr mem.Addr, w mem.Word) (mem.Word, uint64, AccessResult) {
	line, done, res := h.fetchIntoL1(now, core, addr, true)
	idx := addr.WordIndex()
	old := line.Word(idx)
	line.SetWord(idx, w)
	h.markDirtyOwned(core, addr)
	return old, done, res
}

// markDirtyOwned dirties the L1 line and transfers dirty ownership from a
// stale L2 copy (which the fresher L1 copy now supersedes; leaving it
// dirty would write superseded data back to NVRAM). This happens only at
// the instant the L1 copy actually becomes dirty, so the hierarchy always
// holds at least one dirty copy of not-yet-persisted data.
func (h *Hierarchy) markDirtyOwned(core int, addr mem.Addr) {
	h.l1[core].MarkDirty(addr)
	h.l2.CleanLine(addr)
	// A line the FWB scanner just forced out and that re-dirties before
	// the next pass made that flush wasted NVRAM traffic.
	h.scope.NoteDirtied(uint64(addr.Line()))
}

// FetchForStore performs the write-allocate half of a store: the line is
// brought into the core's L1 with exclusive ownership and the old word
// value is returned, but the line is NOT yet modified. The hardware
// logging engine runs between FetchForStore and CompleteStore so that the
// log record is accepted BEFORE the new value becomes visible/dirty —
// otherwise a log-full emergency write-back could persist un-logged data.
func (h *Hierarchy) FetchForStore(now uint64, core int, addr mem.Addr) (mem.Word, uint64, AccessResult) {
	line, done, res := h.fetchIntoL1(now, core, addr, true)
	return line.Word(addr.WordIndex()), done, res
}

// CompleteStore writes the new value into the line fetched by
// FetchForStore and marks it dirty. If intervening engine activity (an
// emergency flush, an eviction) displaced the line, it is transparently
// re-fetched; the returned cycle covers that rare extra work (equal to
// `now` on the common path).
func (h *Hierarchy) CompleteStore(now uint64, core int, addr mem.Addr, w mem.Word) uint64 {
	if line := h.l1[core].resident(addr); line != nil {
		line.SetWord(addr.WordIndex(), w)
		h.markDirtyOwned(core, addr)
		return now
	}
	_, done, _ := h.StoreWord(now, core, addr, w)
	return done
}

// Flush implements clwb addr: if the line is dirty anywhere, write it back
// to memory and leave it valid-clean. Returns the completion cycle of the
// write-back (the caller's sfence waits on it) and whether data moved.
func (h *Hierarchy) Flush(now uint64, core int, addr mem.Addr) (uint64, bool) {
	t := h.startL1(now, core) + h.cfg.L1.HitCycles
	for _, c := range h.l1 {
		if data, ok := c.DirtyLine(addr); ok {
			done := h.writeBack(t, addr, data)
			c.CleanLine(addr)
			h.l2.CleanLine(addr) // the refreshed L2 copy (if any) is clean too
			return done, true
		}
	}
	t = h.startL2(t) + h.cfg.L2.HitCycles
	if data, ok := h.l2.DirtyLine(addr); ok {
		done := h.writeBack(t, addr, data)
		h.l2.CleanLine(addr)
		return done, true
	}
	return t, false
}

// DirtyAnywhere reports whether addr's line is dirty in any cache. The
// hardware logging engine uses this to decide when circular-log entries may
// be truncated (the paper's overwrite-safety condition, Section II-C).
func (h *Hierarchy) DirtyAnywhere(addr mem.Addr) bool {
	for _, c := range h.l1 {
		if _, dirty := c.Probe(addr); dirty {
			return true
		}
	}
	_, dirty := h.l2.Probe(addr)
	return dirty
}

// FwbScan runs one FWB scanning pass (Figure 5 FSM) over every cache.
// Forced write-backs are posted to the backing at `now`. The scan occupies
// each cache's port, delaying demand accesses that arrive during the scan —
// this is the paper's ~3.6% tag-scanning overhead (Section VI).
func (h *Hierarchy) FwbScan(now uint64) {
	h.fwbNow, h.fwbForced = now, 0
	h.scope.NoteScan()
	flagged0 := h.flaggedTotal()
	for i, c := range h.l1 {
		cost := c.FwbScan(h.fwbCB)
		h.l1Busy[i] = h.startL1(now, i) + cost
	}
	cost := h.l2.FwbScan(h.fwbCB)
	h.l2Busy = h.startL2(now) + cost
	if h.tracer.Enabled() {
		flagged := h.flaggedTotal() - flagged0
		h.tracer.Emit(h.traceRing, now, obs.KindFwbScan, 0, h.fwbForced<<32|flagged&0xffffffff)
	}
}

// flaggedTotal sums the FLAG→FWB transition counters across the tree.
func (h *Hierarchy) flaggedTotal() uint64 {
	var n uint64
	for _, c := range h.l1 {
		n += c.Stats().FwbFlagged
	}
	return n + h.l2.Stats().FwbFlagged
}

// FlushAllDirty writes back every dirty line in the hierarchy (emergency
// path when the circular log is about to overwrite live entries and no
// finer-grained information is available; also used by tests).
func (h *Hierarchy) FlushAllDirty(now uint64) uint64 {
	done := now
	flush := func(c *Cache) {
		c.ForEachDirty(func(addr mem.Addr, data *mem.Line) {
			if d := h.writeBack(now, addr, data); d > done {
				done = d
			}
			c.CleanLine(addr)
		})
	}
	for _, c := range h.l1 {
		flush(c)
	}
	flush(h.l2)
	return done
}

// InvalidateAll models power loss: every volatile cache loses its contents.
func (h *Hierarchy) InvalidateAll() {
	for _, c := range h.l1 {
		c.InvalidateAll()
	}
	h.l2.InvalidateAll()
	for i := range h.l1Busy {
		h.l1Busy[i] = 0
	}
	h.l2Busy = 0
}
