package sim

import (
	"errors"
	"fmt"
	"io"

	"pmemlog/internal/cache"
	"pmemlog/internal/core"
	"pmemlog/internal/cpu"
	"pmemlog/internal/dram"
	"pmemlog/internal/mem"
	"pmemlog/internal/memctl"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/nvram"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/scope"
	"pmemlog/internal/pheap"
	"pmemlog/internal/recovery"
	"pmemlog/internal/stats"
	"pmemlog/internal/txn"
)

// ErrCrashed is returned by Run when a scheduled crash fired.
var ErrCrashed = errors.New("sim: machine crashed (power loss)")

// System is one assembled machine instance.
type System struct {
	cfg  Config
	spec txn.Spec

	nv    *nvram.Device
	dr    *dram.Device
	ctl   *memctl.Controller
	hier  *cache.Hierarchy
	eng   *core.Engine // nil unless the mode uses hardware logging
	swLog *nvlog.Log   // nil unless the mode uses software logging
	heap  *pheap.Heap

	cores   []*cpu.Core
	threads []*threadCtx

	growNext mem.Addr // bump pointer inside the grow reserve

	oracle *oracle

	crashAt uint64 // 0 = no crash scheduled
	crashed bool
	grants  uint64 // switches into a thread's coroutine made by RunN

	// population records pre-measurement SetupCtx stores for the recovery
	// verifier's replay baseline (oracle mode only).
	population map[mem.Addr]mem.Word

	committedTxns uint64
	txnLatencies  []uint64 // per-commit latency in cycles (see TxnLatencySampleCap)
	txnLatSeq     uint64   // samples overwritten since the buffer filled
	benchName     string

	// Software-logging shared state (centralized log, Section III-F).
	swNextTxID uint16
	swActive   map[int]uint64 // thread -> first live record sequence

	// oracleByHandle maps hardware transaction handles to oracle records
	// so the engine's truncation hook can mark provably-durable commits.
	oracleByHandle map[uint64]*txRecord

	// tracer, when attached, receives machine events: ring i = thread i,
	// ring Threads = the machine ring (engine, controller, caches).
	tracer *obs.Tracer

	// scope is the always-on persistence-domain cost ledger. Owned by the
	// System (it must survive Reboot/Attach rebuilds — cost history is a
	// property of the NVRAM device's lifetime, not of one boot), wired
	// into the rebuilt components by wireScope.
	scope *scope.Counters

	// reqSpan tags tx/log trace events with the request span currently
	// driving the machine (see SetSpan). Plain field: the owning shard
	// goroutine is the only writer and all emits happen on it.
	reqSpan uint32

	// Most recent durable commit, for request→txn attribution by the
	// flight recorder (fields written in TxCommit, read by the same
	// goroutine right after RunN returns).
	lastCommitTxID  uint16
	lastCommitBegin uint64 // cycle of that txn's begin
	lastCommitEnd   uint64 // cycle of its commit
}

// SetSpan sets the request span tag stamped on this machine's tx and
// record-level log trace events until the next SetSpan (0 clears it). A
// server shard calls it per applied request so simulator-side events
// join the request's causal timeline.
func (s *System) SetSpan(span uint32) {
	s.reqSpan = span
	if s.eng != nil {
		s.eng.SetSpan(span)
	}
}

// LastCommit reports the txid and begin/commit cycles of the most
// recently committed transaction (zeros before the first commit). Only
// meaningful from the goroutine that ran the workload.
func (s *System) LastCommit() (txid uint16, begin, commit uint64) {
	return s.lastCommitTxID, s.lastCommitBegin, s.lastCommitEnd
}

// LogState reports the circular log's head/tail sequence numbers and
// record capacity (the primary region under distributed logging) — the
// wrap-pressure inputs a flight-recorder dump captures.
func (s *System) LogState() (head, tail, capacity uint64) {
	var l *nvlog.Log
	switch {
	case s.eng != nil:
		l = s.eng.Log()
	case s.swLog != nil:
		l = s.swLog
	default:
		return 0, 0, 0
	}
	return l.Head(), l.Tail(), l.Capacity()
}

// Snapshot fills out with every cumulative counter of the machine: the
// scope ledger, the log window, and the counters the cores, caches,
// memory controller, NVRAM and logging engine keep. It is the one
// function that gathers them — Stats builds on it — and it allocates
// nothing and touches no percentile math, so the zero-alloc shard loop
// calls it once per batch. The counters of the components Reboot and
// Attach rebuild (cores, caches, memory controller, engine) restart with
// them; the ledger's and the NVRAM device's do not. Only meaningful from
// the goroutine that runs the workload (the Stats contract).
func (s *System) Snapshot(out *scope.Snapshot) {
	*out = scope.Snapshot{Ledger: s.scope.Ledger, Cycles: s.WallCycles(), Txns: s.committedTxns}
	out.LogHead, out.LogTail, out.LogCap = s.LogState()
	for i, c := range s.cores {
		cs := c.Stats()
		out.Instructions += cs.Instructions
		out.StallCycles += cs.StallCycles
		l1 := s.hier.L1(i).Stats()
		out.L1Hits += l1.Hits
		out.L1Misses += l1.Misses
		out.FwbFlagged += l1.FwbFlagged
		out.FwbForced += l1.FwbForced
	}
	l2 := s.hier.L2().Stats()
	out.L2Hits, out.L2Misses = l2.Hits, l2.Misses
	out.FwbFlagged += l2.FwbFlagged
	out.FwbForced += l2.FwbForced
	nvs := s.nv.Stats()
	out.NVRAMReadBytes, out.NVRAMWriteBytes = nvs.BytesRead, nvs.BytesWritten
	cs := s.ctl.Stats()
	out.LogWriteBytes, out.LogBufStalls, out.DataWrites = cs.LogWriteBytes, cs.LogBufStalls, cs.DataWrites
	switch {
	case s.eng != nil:
		es := s.eng.Stats()
		out.LogAppends = es.Records
		out.LogTruncated = es.Truncated
		out.LogGrows = es.Grows
		out.FwbScans = es.ScansRun
		out.LiveRecords = s.eng.LiveRecords()
	case s.swLog != nil:
		out.LogAppends = s.swLog.Stats().Appends
		out.LiveRecords = s.swLog.Len()
	}
}

// RunOf labels snap's counters with this machine's benchmark, mode and
// thread count. The derived end-of-run fields (Seconds, the energies,
// ResidualDirtyBytes, the txn latency percentiles) stay zero: Stats
// fills them. It reads only configuration fixed at New, so any
// goroutine may call it with a published snapshot.
func (s *System) RunOf(snap *scope.Snapshot) stats.Run {
	return stats.Run{
		Benchmark:       s.benchName,
		Mode:            s.spec.Name,
		Threads:         s.cfg.Threads,
		Cycles:          snap.Cycles,
		Instructions:    snap.Instructions,
		Transactions:    snap.Txns,
		NVRAMReadBytes:  snap.NVRAMReadBytes,
		NVRAMWriteBytes: snap.NVRAMWriteBytes,
		LogWriteBytes:   snap.LogWriteBytes,
		L1Hits:          snap.L1Hits,
		L1Misses:        snap.L1Misses,
		L2Hits:          snap.L2Hits,
		L2Misses:        snap.L2Misses,
		StallCycles:     snap.StallCycles,
		FwbScans:        snap.FwbScans,
		FwbForced:       snap.FwbForced,
		LogAppends:      snap.LogAppends,
		LogBufStalls:    snap.LogBufStalls,
		LogTruncated:    snap.LogTruncated,
		LogGrows:        snap.LogGrows,
	}
}

// wireScope pushes the System-owned scope ledger into every component
// with accounting hooks. Like wireTracer/wireChaos it runs at
// construction and again after Reboot/Attach rebuild the volatile
// components, so cost history accumulates across simulated crashes.
func (s *System) wireScope() {
	s.hier.SetScope(s.scope)
	if s.eng != nil {
		s.eng.SetScope(s.scope)
	}
}

// AttachTracer allocates an event tracer sized for this machine (one
// ring per hardware thread plus a machine ring, perRing records each),
// wires it through every layer, and returns it disabled; call Enable
// on the result to start recording. Reboot/Attach re-wire it into the
// rebuilt components automatically.
func (s *System) AttachTracer(perRing int) *obs.Tracer {
	s.tracer = obs.NewTracer(s.cfg.Threads+1, perRing)
	s.wireTracer()
	return s.tracer
}

// Tracer returns the attached tracer, nil when none.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// TracerRingNames labels the tracer's rings for export surfaces.
func (s *System) TracerRingNames() []string {
	names := make([]string, s.cfg.Threads+1)
	for i := 0; i < s.cfg.Threads; i++ {
		names[i] = fmt.Sprintf("thread %d", i)
	}
	names[s.cfg.Threads] = "machine"
	return names
}

// wireTracer pushes the current tracer (possibly nil) into every
// component that can emit events.
func (s *System) wireTracer() {
	machine := s.cfg.Threads
	s.ctl.SetTracer(s.tracer, machine)
	s.hier.SetTracer(s.tracer, machine)
	if s.eng != nil {
		s.eng.SetTracer(s.tracer)
	}
	if s.swLog != nil {
		if s.tracer == nil {
			s.swLog.SetTrace(nil)
		} else {
			s.swLog.SetTrace(s.swLogTrace)
		}
	}
}

// wireChaos pushes the config's fault injector (possibly nil) into every
// hardware component with injection sites. Like wireTracer it runs at
// construction and again after Reboot/Attach rebuild the volatile
// components, so an armed machine stays armed across simulated crashes.
func (s *System) wireChaos() {
	s.ctl.SetChaos(s.cfg.Chaos)
	s.hier.SetChaos(s.cfg.Chaos)
	s.nv.SetChaos(s.cfg.Chaos)
}

// swLogTrace forwards software-log events into the tracer, stamping
// the appending thread's local clock (the software log, unlike the
// engine, is driven directly from thread context).
func (s *System) swLogTrace(k nvlog.TraceKind, arg uint64, ent *nvlog.Entry) {
	if !s.tracer.Enabled() {
		return
	}
	ring := s.cfg.Threads
	var txid uint16
	ts := s.GlobalTime()
	if ent != nil {
		txid = ent.TxID
		if int(ent.ThreadID) < len(s.threads) {
			ring = int(ent.ThreadID)
			ts = s.threads[ent.ThreadID].core.Now()
		}
	}
	switch k {
	case nvlog.TraceAppend:
		s.tracer.EmitSpan(ring, ts, obs.KindLogAppend, txid, arg, s.reqSpan)
	case nvlog.TraceWrap:
		s.tracer.Emit(s.cfg.Threads, ts, obs.KindLogWrap, 0, arg)
	case nvlog.TraceFull:
		s.tracer.EmitSpan(ring, ts, obs.KindLogStall, txid, arg, s.reqSpan)
	case nvlog.TraceTruncate:
		s.tracer.Emit(s.cfg.Threads, ts, obs.KindLogTruncate, 0, arg)
	}
}

// New builds the machine: it formats the log region into a blank NVRAM
// image (the paper's log_create) and boots from that image through
// assemble, the path Reboot and Attach take.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, spec: cfg.Mode.Spec(), scope: &scope.Counters{}}
	if cfg.TxnLatencySampleCap > 0 {
		// Preallocate the sliding window so the commit path never grows it
		// (keeping steady-state commits allocation free from the first op).
		s.txnLatencies = make([]uint64, 0, cfg.TxnLatencySampleCap)
	}

	var err error
	if s.nv, err = nvram.New(cfg.NVRAM, cfg.NVRAMBase, cfg.NVRAMBytes); err != nil {
		return nil, err
	}
	if s.dr, err = dram.New(cfg.DRAM, 0, cfg.DRAMBytes); err != nil {
		return nil, err
	}
	s.growNext = cfg.NVRAMBase + mem.Addr(cfg.LogBytes)
	heapBase := s.growNext + mem.Addr(cfg.GrowReserveBytes)
	if s.heap, err = pheap.New(heapBase, cfg.NVRAMBytes-cfg.LogBytes-cfg.GrowReserveBytes); err != nil {
		return nil, err
	}
	if cfg.TrackOracle {
		s.oracle = newOracle()
		s.population = make(map[mem.Addr]mem.Word)
		s.oracleByHandle = make(map[uint64]*txRecord)
	}

	// log_create blocks until the initial metadata is durable before the
	// program starts, so its writes are untimed. They go through a
	// controller of their own; assemble builds the one the machine boots with.
	logCfg, numLogs := s.logConfig()
	var init []nvlog.Write
	switch {
	case s.spec.HWLog:
		init, err = core.Format(logCfg, numLogs)
	case s.spec.SWLog:
		_, init, err = nvlog.New(logCfg)
	}
	if err != nil {
		return nil, err
	}
	if s.ctl, err = memctl.New(cfg.Memctl, s.nv, s.dr); err != nil {
		return nil, err
	}
	for _, w := range init {
		s.ctl.WriteUntimed(w.Addr, w.Bytes)
	}
	if err := s.assemble(); err != nil {
		return nil, err
	}
	return s, nil
}

// logConfig describes the log region log_create formats, and the number
// of per-thread sub-logs the hardware engine splits it into.
func (s *System) logConfig() (nvlog.Config, int) {
	c := nvlog.Config{Base: s.cfg.NVRAMBase, SizeBytes: s.cfg.LogBytes, Style: nvlog.UndoRedo}
	if s.spec.SWLog {
		// Software logs pad records to cache lines (avoiding partial-line
		// writes and false sharing); the hardware log buffer packs two
		// 32 B records per line instead.
		c.Style, c.LineAligned = s.spec.SWStyle, true
	}
	if s.cfg.PerThreadLogs {
		return c, s.cfg.Threads
	}
	return c, 1
}

// onEngineTruncated records hardware truncation evidence in the oracle.
func (s *System) onEngineTruncated(handle uint64, ev core.TruncEvidence) {
	if rec := s.oracleByHandle[handle]; rec != nil {
		rec.truncated = true
		rec.truncLogIdx = ev.LogIdx
		rec.truncBase = ev.Base
		rec.truncLastSeq = ev.LastSeq
	}
}

func (s *System) allocGrowRegion(size uint64) (mem.Addr, bool) {
	end := s.cfg.NVRAMBase + mem.Addr(s.cfg.LogBytes+s.cfg.GrowReserveBytes)
	if s.growNext+mem.Addr(size) > end {
		return 0, false
	}
	a := s.growNext
	s.growNext += mem.Addr(size)
	return a, true
}

// Heap returns the persistent heap allocator.
func (s *System) Heap() *pheap.Heap { return s.heap }

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// Hierarchy exposes the cache tree (tests, Table I sizing).
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// Controller exposes the memory controller (tests).
func (s *System) Controller() *memctl.Controller { return s.ctl }

// Engine exposes the hardware logging engine (nil for non-HW modes).
func (s *System) Engine() *core.Engine { return s.eng }

// NVRAMImage exposes the persistent byte image (recovery, verification).
func (s *System) NVRAMImage() *mem.Physical { return s.nv.Image() }

// LogBases returns every log region's base address: the engine's
// sub-logs under distributed logging, otherwise the single region.
func (s *System) LogBases() []mem.Addr {
	if s.eng != nil {
		return s.eng.LogBases()
	}
	return []mem.Addr{s.cfg.NVRAMBase}
}

// SetBenchName labels the stats produced by this system.
func (s *System) SetBenchName(name string) { s.benchName = name }

// Quiesce drains the memory controller's volatile buffers (log write
// buffer and write-combining buffer) into the NVRAM image. Commit returns
// as soon as the commit record reaches the log buffer — battery-backed in
// the paper's hardware, volatile here — so a service snapshotting the
// image at a batch boundary must drain first or the snapshot could roll an
// acknowledged transaction back on recovery. Caches need no flushing: with
// undo+redo logging, a durable commit record makes the data recoverable by
// redo (the paper's no-force property).
func (s *System) Quiesce() {
	var now uint64
	for _, c := range s.cores {
		if c.Now() > now {
			now = c.Now()
		}
	}
	s.ctl.DrainBuffers(now)
}

// Peek reads a word directly from the NVRAM image (verification only).
func (s *System) Peek(addr mem.Addr) mem.Word { return s.nv.Image().ReadWord(addr) }

// ScheduleCrash arranges a power loss once global time reaches cycle.
func (s *System) ScheduleCrash(cycle uint64) { s.crashAt = cycle }

// CommittedOracle returns the expected durable word values for every
// committed update (requires TrackOracle).
func (s *System) CommittedOracle() map[mem.Addr]mem.Word {
	if s.oracle == nil {
		return nil
	}
	return s.oracle.committed
}

// Recover runs the paper's recovery procedure against the post-crash NVRAM
// image (the caches were already invalidated by the crash). Under
// distributed logging, every per-thread log region is recovered.
func (s *System) Recover() (recovery.Report, error) {
	return recovery.RecoverAll(s.nv.Image(), s.LogBases())
}

// Reboot rebuilds the volatile machine state — cores, caches, memory
// controller, logging engine — over the surviving NVRAM image so execution
// can continue after Recover. The log is reopened at the pointers recovery
// persisted (sequence position continues, keeping torn bits unambiguous);
// the heap allocator's volatile metadata carries over, standing in for an
// application re-attaching its persistent structures.
func (s *System) Reboot() error {
	if !s.crashed {
		return errors.New("sim: Reboot without a crash")
	}
	return s.assemble()
}

// Attach re-attaches a persisted NVRAM image to this (freshly built,
// never-run) machine: the image is loaded, the four-step recovery
// procedure runs against it, and the volatile machine state is rebuilt
// over the recovered image with the log reopened at the pointers recovery
// persisted. It is the cross-process analogue of crash + Recover + Reboot:
// a server restarting over a DIMM image saved by an earlier process.
//
// Attaching an image whose log was migrated by log_grow is not supported
// (the reattached engine would reopen the abandoned region); size LogBytes so
// the log never grows, or disable growing, when images are persisted.
func (s *System) Attach(r io.Reader) (recovery.Report, error) {
	if err := s.LoadNVRAM(r); err != nil {
		return recovery.Report{}, err
	}
	rep, err := s.Recover()
	if err != nil {
		return rep, err
	}
	for _, hops := range rep.Hops {
		if hops > 0 {
			return rep, errors.New("sim: Attach of a grown-log image is unsupported")
		}
	}
	if err := s.assemble(); err != nil {
		return rep, err
	}
	return rep, nil
}

// assemble builds every volatile component — memory controller, caches,
// logging engine or software log, cores — over the NVRAM image, opening
// each log at the pointers its durable metadata holds. Every boot takes
// this path: New over a freshly formatted image, Reboot and Attach over a
// recovered one.
func (s *System) assemble() error {
	var err error
	if s.ctl, err = memctl.New(s.cfg.Memctl, s.nv, s.dr); err != nil {
		return err
	}
	if s.hier, err = cache.NewHierarchy(s.cfg.Caches, s.ctl); err != nil {
		return err
	}
	logCfg, numLogs := s.logConfig()
	switch {
	case s.spec.HWLog:
		if numLogs == 1 {
			// Open the log where it DURABLY lives. Volatile config is not
			// evidence: a log_grow whose new-region metadata writes were
			// still in flight at the crash moved the volatile base without
			// ever becoming durable, and recovery correctly stayed on the
			// old region. Chase the same forward chain recovery follows —
			// from the original base through completed grows only.
			live, err := nvlog.Resolve(s.nv.Image(), logCfg.Base)
			if err != nil {
				return fmt.Errorf("sim: boot: %w", err)
			}
			if live.Hops > 0 {
				logCfg = live.Config()
			}
		}
		s.eng, err = core.New(core.Config{
			Log:             logCfg,
			FwbScanInterval: s.cfg.FwbScanInterval,
			Unsafe:          !s.spec.Persistent,
			DisableFWB:      !s.spec.UseFWB,
			GrowFactor:      s.cfg.GrowFactor,
			NumLogs:         numLogs,
		}, s.ctl, s.hier)
		if err != nil {
			return err
		}
		s.eng.SetGrowRegion(s.allocGrowRegion)
		s.eng.SetTruncatedHook(s.onEngineTruncated)
	case s.spec.SWLog:
		if s.swLog, err = nvlog.Open(s.nv.Image(), logCfg); err != nil {
			return fmt.Errorf("sim: boot: %w", err)
		}
	}

	s.cores = s.cores[:0]
	s.threads = s.threads[:0]
	for i := 0; i < s.cfg.Threads; i++ {
		c, err := cpu.New(s.cfg.CPU)
		if err != nil {
			return err
		}
		s.cores = append(s.cores, c)
		s.threads = append(s.threads, newThreadCtx(s, i, c))
	}
	s.swActive = make(map[int]uint64)
	s.crashed = false
	s.crashAt = 0
	s.wireTracer()
	s.wireScope()
	s.wireChaos()
	return nil
}

// SaveNVRAM serializes the NVRAM image (sparsely) so a later process can
// re-attach it — the simulated DIMM surviving a real process exit.
func (s *System) SaveNVRAM(w io.Writer) error {
	_, err := s.nv.Image().WriteTo(w)
	return err
}

// LoadNVRAM replaces the NVRAM contents with a previously saved image of
// identical geometry. Call before running anything (typically followed by
// Recover on a crashed image).
func (s *System) LoadNVRAM(r io.Reader) error {
	img, err := mem.ReadPhysical(r)
	if err != nil {
		return err
	}
	return s.ctl.LoadImage(img)
}

// DumpLog decodes the durable log records currently in NVRAM (all regions,
// buffered records excluded) — a debugging/inspection aid.
func (s *System) DumpLog() ([]nvlog.Entry, error) {
	regions, err := nvlog.Walk(s.nv.Image(), s.LogBases())
	if err != nil {
		return nil, err
	}
	var out []nvlog.Entry
	for _, r := range regions {
		out = append(out, r.Entries...)
	}
	return out, nil
}

// GlobalTime returns the minimum local clock over all threads — the
// earliest time at which anything can still happen.
func (s *System) GlobalTime() uint64 {
	var min uint64 = ^uint64(0)
	for _, c := range s.cores {
		if n := c.Now(); n < min {
			min = n
		}
	}
	return min
}

// WallCycles returns the maximum local clock (run duration).
func (s *System) WallCycles() uint64 {
	var max uint64
	for _, c := range s.cores {
		if n := c.Now(); n > max {
			max = n
		}
	}
	return max
}

// Stats assembles the run's metric bundle: the Snapshot counters plus
// the derived end-of-run fields, which walk the caches and sort the
// latency window.
func (s *System) Stats() stats.Run {
	var snap scope.Snapshot
	s.Snapshot(&snap)
	r := s.RunOf(&snap)
	r.Seconds = s.cfg.CPU.CyclesToSeconds(r.Cycles)
	if len(s.txnLatencies) > 0 {
		lat := make([]uint64, len(s.txnLatencies))
		copy(lat, s.txnLatencies)
		r.TxnLatencyP50 = stats.Percentile(lat, 50)
		r.TxnLatencyP99 = stats.Percentile(lat, 99)
		r.TxnLatencyMax = lat[len(lat)-1]
	}
	nvEnergy := s.nv.Stats().EnergyPJ
	dirty := s.hier.L2().DirtyCount()
	for i := range s.cores {
		dirty += s.hier.L1(i).DirtyCount()
	}
	r.ResidualDirtyBytes = uint64(dirty) * mem.LineSize
	// The deferred write-backs also carry deferred write energy; charge it
	// so no-force designs compare fairly against never-writing baselines.
	r.MemEnergyPJ = nvEnergy + float64(r.ResidualDirtyBytes*8)*
		(s.cfg.NVRAM.ArrayWritePJPerBit+s.cfg.NVRAM.RowBufWritePJPerBit)
	b := s.cfg.Energy.Account(r.Instructions, r.L1Hits+r.L1Misses, r.L2Hits+r.L2Misses, nvEnergy)
	r.ProcEnergyPJ = b.ProcessorPJ
	return r
}

// crash performs the power loss: caches and buffers lose contents,
// in-flight NVRAM writes revert, DRAM clears.
func (s *System) crash(atCycle uint64) {
	s.crashed = true
	s.ctl.Crash(atCycle)
	s.hier.InvalidateAll()
}

func (s *System) String() string {
	return fmt.Sprintf("sim.System{mode=%s threads=%d log=%dKB}", s.spec.Name, s.cfg.Threads, s.cfg.LogBytes>>10)
}
