package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pmemlog/internal/mem"
	"pmemlog/internal/txn"
)

// orderCtx records, after every operation, which thread ran it and where
// its clock stood. Threads are coroutines on RunN's goroutine, so the
// shared hash needs no lock.
type orderCtx struct {
	Ctx
	h hash.Hash
}

func (c orderCtx) mark() {
	t := c.Ctx.(*threadCtx)
	fmt.Fprintf(c.h, "%d@%d ", t.id, t.core.Now())
}

func (c orderCtx) TxBegin()                     { c.Ctx.TxBegin(); c.mark() }
func (c orderCtx) TxCommit()                    { c.Ctx.TxCommit(); c.mark() }
func (c orderCtx) Compute(n uint64)             { c.Ctx.Compute(n); c.mark() }
func (c orderCtx) Store(a mem.Addr, w mem.Word) { c.Ctx.Store(a, w); c.mark() }
func (c orderCtx) Load(a mem.Addr) mem.Word {
	w := c.Ctx.Load(a)
	c.mark()
	return w
}

// goldenConfig is smallConfig in fwb mode with a log small enough to wrap
// and a scan interval short enough that FwbTick does real work inside a
// history of a few thousand operations.
func goldenConfig(threads int) Config {
	cfg := smallConfig(txn.FWB, threads)
	cfg.LogBytes = 16 << 10
	cfg.FwbScanInterval = 5000
	return cfg
}

// goldenWorkload: every thread walks its own 8 KB of counters (4x the
// 2 KB L1) with unequal compute per thread, so clocks interleave unevenly.
func goldenWorkload(s *System, threads, txns int) func(Ctx, int) {
	const words = 1024
	base := make([]mem.Addr, threads)
	for i := range base {
		a, err := s.Heap().AllocLine(words * mem.WordSize)
		if err != nil {
			panic(err)
		}
		base[i] = a
	}
	return func(ctx Ctx, id int) {
		rng := rand.New(rand.NewSource(int64(id)*31 + 7))
		for k := 0; k < txns; k++ {
			ctx.TxBegin()
			for j := 0; j < 4; j++ {
				a := base[id] + mem.Addr(rng.Intn(words)*mem.WordSize)
				v := ctx.Load(a)
				ctx.Compute(uint64(3 + 5*id + j))
				ctx.Store(a, v+1)
			}
			ctx.TxCommit()
		}
	}
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// TestScheduleOrderGolden pins the scheduler's event order. The schedule
// digests were recorded at the commit before threads began running while
// they are the pick (two channel hand-offs per operation); they must never
// move: the order of (thread, clock) after every operation, and the final
// counters. With a crash at every 1500th cycle of a 2-thread run, every
// recovered image must pass the oracle, and the recovered images and
// recovery reports are pinned too, which also fixes FwbTick and Retire
// against the crash instant (this digest was recorded once Retire stopped
// trimming past a scheduled crash: TestRetireStopsAtScheduledCrash).
// Where a transaction was truncated from a grown log region, corrupting
// one of its words after recovery must be caught — the negative control
// for the oracle's grow rule.
func TestScheduleOrderGolden(t *testing.T) {
	wantOrder := map[int]string{
		1: "450ad7119fd29bfb",
		2: "f67b80d446ea1c38",
		3: "92368d5ceac8bbc8",
	}
	for threads := 1; threads <= 3; threads++ {
		s := mustSystem(t, goldenConfig(threads))
		w := goldenWorkload(s, threads, 150)
		h := sha256.New()
		if err := s.RunN(func(ctx Ctx, id int) { w(orderCtx{ctx, h}, id) }); err != nil {
			t.Fatal(err)
		}
		r := s.Stats()
		if r.FwbScans == 0 || r.LogTruncated == 0 {
			t.Fatalf("%d threads: history too tame (scans %d, truncated %d)", threads, r.FwbScans, r.LogTruncated)
		}
		fmt.Fprintf(h, "%+v", r)
		if got := hexSum(h); got != wantOrder[threads] {
			t.Errorf("%d threads: schedule digest %s, want %s", threads, got, wantOrder[threads])
		}
	}

	const wantCrash = "7f0f9943fbeea57f"
	ref := mustSystem(t, goldenConfig(2))
	if err := ref.RunN(goldenWorkload(ref, 2, 150)); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	points, controls := 0, 0
	for at := uint64(1500); at < ref.WallCycles(); at += 1500 {
		s := mustSystem(t, goldenConfig(2))
		s.ScheduleCrash(at)
		if err := s.RunN(goldenWorkload(s, 2, 150)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at %d: %v", at, err)
		}
		rep, err := s.Recover()
		if err != nil {
			t.Fatalf("crash at %d: recover: %v", at, err)
		}
		for _, bad := range s.VerifyRecovery(rep, at) {
			t.Errorf("crash at %d: %s", at, bad)
		}
		fmt.Fprintf(h, "%d %+v ", at, rep)
		if _, err := s.NVRAMImage().WriteTo(h); err != nil {
			t.Fatal(err)
		}
		points++
		if tx := truncatedInGrownRegion(s); tx != nil {
			img, a := s.NVRAMImage(), tx.writes[0].addr
			img.WriteWord(a, img.ReadWord(a)^1)
			if bad := s.VerifyRecovery(rep, at); len(bad) != 1 || !strings.Contains(bad[0], a.String()) {
				t.Errorf("crash at %d: corrupting tx %d's word %v gave %q, want one mismatch there", at, tx.txID, a, bad)
			}
			controls++
		}
	}
	if points < 50 || controls == 0 {
		t.Fatalf("only %d crash points, %d of them after a log_grow truncation", points, controls)
	}
	if got := hexSum(h); got != wantCrash {
		t.Errorf("crash sweep digest over %d points %s, want %s", points, got, wantCrash)
	}
}

// truncatedInGrownRegion returns the last transaction the engine truncated
// from a region log_grow made, nil when there is none.
func truncatedInGrownRegion(s *System) *txRecord {
	bases := s.LogBases()
	for i := len(s.oracle.txs) - 1; i >= 0; i-- {
		if tx := s.oracle.txs[i]; tx.truncated && tx.truncBase != bases[tx.truncLogIdx] {
			return tx
		}
	}
	return nil
}

// TestRetireStopsAtScheduledCrash: housekeeping can run at a global time
// already past the scheduled crash cycle (the crash fires at the next
// pick), and however often Retire trims the revert record then, the crash
// must still revert every write completing after its cycle. Each write
// here completes after the crash cycle, and global time passes it before
// the next housekeeping.
func TestRetireStopsAtScheduledCrash(t *testing.T) {
	const crashAt, lines = 1000, 64
	s := mustSystem(t, goldenConfig(1))
	base, err := s.Heap().AllocLine(lines * mem.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleCrash(crashAt)
	var ones mem.Line
	for i := range ones {
		ones[i] = 0xff
	}
	core := s.cores[0]
	for i := 0; i < lines; i++ {
		core.StallUntil(s.ctl.WriteBackLine(max(core.Now(), crashAt), base+mem.Addr(i*mem.LineSize), &ones))
		s.housekeep()
	}
	if err := s.RunN(func(Ctx, int) {}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("RunN = %v, want the scheduled crash", err)
	}
	for i := 0; i < lines; i++ {
		if a := base + mem.Addr(i*mem.LineSize); s.Peek(a) != 0 {
			t.Errorf("line %d: write completing after the crash at %d survived it", i, crashAt)
		}
	}
}

// TestHandOffGuard: the machine changes hands (one coroutine switch each
// way) only on a real switch between threads. A one-thread machine (every
// server shard) is granted once and comes back once, finished, however
// long the run; with two threads a thread keeps the machine for as long as
// its clock stays the smallest.
func TestHandOffGuard(t *testing.T) {
	ops := func(s *System) uint64 { return s.Stats().Transactions * (2 + 3*4) }

	one := mustSystem(t, goldenConfig(1))
	if err := one.RunN(goldenWorkload(one, 1, 150)); err != nil {
		t.Fatal(err)
	}
	if n := ops(one); n < 1000 || one.grants != 1 {
		t.Errorf("1 thread: %d grants over %d operations, want exactly 1 (>= 1000 operations)", one.grants, n)
	}

	two := mustSystem(t, goldenConfig(2))
	if err := two.RunN(goldenWorkload(two, 2, 150)); err != nil {
		t.Fatal(err)
	}
	if n := ops(two); two.grants < 2 || two.grants >= n {
		t.Errorf("2 threads: %d grants over %d operations, want 2 <= grants < operations", two.grants, n)
	}
	t.Logf("grants: 1 thread %d / %d ops, 2 threads %d / %d ops", one.grants, ops(one), two.grants, ops(two))
}

// TestCrashLeavesNoThreadRunning: a crash stops every suspended thread, so
// crashing a 3-thread machine at points spread over its run leaves no
// coroutine behind. Each iter.Pull coroutine is a goroutine, which is what
// runtime.NumGoroutine sees.
func TestCrashLeavesNoThreadRunning(t *testing.T) {
	ref := mustSystem(t, goldenConfig(3))
	if err := ref.RunN(goldenWorkload(ref, 3, 150)); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	before := runtime.NumGoroutine()
	for i := 1; i <= runs; i++ {
		s := mustSystem(t, goldenConfig(3))
		s.ScheduleCrash(ref.WallCycles() * uint64(i) / (runs + 1))
		if err := s.RunN(goldenWorkload(s, 3, 150)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d crash runs left goroutines %d -> %d", runs, before, after)
	}
}

// BenchmarkRunThreads is the simulator's per-layer number: host
// nanoseconds per simulated instruction on an fwb machine, and how often
// the scheduler switches threads (grants per 1 000 instructions).
func BenchmarkRunThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			cfg := smallConfig(txn.FWB, threads)
			cfg.TrackOracle = false
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			w := goldenWorkload(s, threads, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.RunN(w); err != nil {
					b.Fatal(err)
				}
			}
			instr := float64(s.Stats().Instructions)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/instr, "ns/instr")
			b.ReportMetric(float64(s.grants)*1000/instr, "grants/kinstr")
		})
	}
}
