package cache

import (
	"math/rand"
	"testing"

	"pmemlog/internal/mem"
)

// fakeBacking is a flat memory with fixed latencies that records traffic.
type fakeBacking struct {
	img        *mem.Physical
	fetchLat   uint64
	wbLat      uint64
	fetches    int
	writeBacks []mem.Addr
}

func newFakeBacking() *fakeBacking {
	return &fakeBacking{img: mem.NewPhysical(0, 1<<20), fetchLat: 100, wbLat: 100}
}

func (b *fakeBacking) FetchLine(now uint64, addr mem.Addr, dst *mem.Line) uint64 {
	b.img.ReadLine(addr, dst)
	b.fetches++
	return now + b.fetchLat
}

func (b *fakeBacking) WriteBackLine(now uint64, addr mem.Addr, src *mem.Line) uint64 {
	b.img.WriteLine(addr, src)
	b.writeBacks = append(b.writeBacks, addr)
	return now + b.wbLat
}

func testHierarchy(t *testing.T, cores int) (*Hierarchy, *fakeBacking) {
	t.Helper()
	b := newFakeBacking()
	cfg := HierarchyConfig{
		NumCores: cores,
		L1:       Config{Name: "L1", SizeBytes: 1024, Ways: 2, HitCycles: 4, ScanCycles: 1},
		L2:       Config{Name: "L2", SizeBytes: 8 * 1024, Ways: 4, HitCycles: 11, ScanCycles: 1},
	}
	h, err := NewHierarchy(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return h, b
}

func TestLoadMissFillsAllLevels(t *testing.T) {
	h, b := testHierarchy(t, 2)
	b.img.WriteWord(0x100, 77)
	w, done, res := h.LoadWord(0, 0, 0x100)
	if w != 77 || res != HitMemory {
		t.Fatalf("load = %d from %v, want 77 from memory", w, res)
	}
	if done != 4+11+100 {
		t.Errorf("miss latency = %d, want 115", done)
	}
	// Second load: L1 hit.
	_, done2, res2 := h.LoadWord(done, 0, 0x100)
	if res2 != HitL1 || done2 != done+4 {
		t.Errorf("second load: %v in %d cycles", res2, done2-done)
	}
	// Other core: L2 hit.
	_, _, res3 := h.LoadWord(done2, 1, 0x100)
	if res3 != HitL2 {
		t.Errorf("other core load = %v, want L2", res3)
	}
}

func TestStoreReturnsOldValue(t *testing.T) {
	h, b := testHierarchy(t, 1)
	b.img.WriteWord(0x200, 10)
	// Store miss: write-allocate must fetch the line, so the old value is
	// available (paper Figure 3(c)).
	old, _, res := h.StoreWord(0, 0, 0x200, 20)
	if old != 10 || res != HitMemory {
		t.Fatalf("store miss old=%d res=%v, want 10/memory", old, res)
	}
	// Store hit: old value read from the hitting line (Figure 3(b)).
	old2, _, res2 := h.StoreWord(0, 0, 0x200, 30)
	if old2 != 20 || res2 != HitL1 {
		t.Fatalf("store hit old=%d res=%v, want 20/L1", old2, res2)
	}
	// The dirty data is only in cache; backing still has the stale value.
	if got := b.img.ReadWord(0x200); got != 10 {
		t.Errorf("backing = %d, want 10 (write-back cache must not write through)", got)
	}
}

func TestLoadSeesRemoteDirty(t *testing.T) {
	h, _ := testHierarchy(t, 2)
	h.StoreWord(0, 0, 0x300, 55)
	w, _, _ := h.LoadWord(100, 1, 0x300)
	if w != 55 {
		t.Fatalf("core 1 read %d, want 55 (remote dirty)", w)
	}
	// After the demotion, at most one dirty copy exists.
	dirtyOwners := 0
	for i := 0; i < 2; i++ {
		if _, d := h.L1(i).Probe(0x300); d {
			dirtyOwners++
		}
	}
	_, l2dirty := h.L2().Probe(0x300)
	if dirtyOwners > 0 && l2dirty {
		t.Error("line dirty in both an L1 and L2")
	}
}

func TestStoreInvalidatesRemoteCopies(t *testing.T) {
	h, _ := testHierarchy(t, 2)
	h.StoreWord(0, 0, 0x300, 1)
	h.LoadWord(10, 1, 0x300) // both L1s now have a copy
	h.StoreWord(20, 1, 0x300, 2)
	if present, _ := h.L1(0).Probe(0x300); present {
		t.Error("stale copy in core 0 L1 after core 1 store")
	}
	w, _, _ := h.LoadWord(30, 0, 0x300)
	if w != 2 {
		t.Errorf("core 0 read %d, want 2", w)
	}
}

func TestFlushWritesBackAndRetains(t *testing.T) {
	h, b := testHierarchy(t, 1)
	h.StoreWord(0, 0, 0x400, 99)
	done, moved := h.Flush(10, 0, 0x400)
	if !moved || done <= 10 {
		t.Fatalf("flush moved=%v done=%d", moved, done)
	}
	if got := b.img.ReadWord(0x400); got != 99 {
		t.Errorf("backing after clwb = %d, want 99", got)
	}
	// Line retained, clean, still a hit.
	_, _, res := h.LoadWord(done, 0, 0x400)
	if res != HitL1 {
		t.Errorf("post-flush load = %v, want L1 hit", res)
	}
	if h.DirtyAnywhere(0x400) {
		t.Error("line dirty after flush")
	}
	// Flushing a clean line is a no-op.
	_, moved2 := h.Flush(done, 0, 0x400)
	if moved2 {
		t.Error("clean flush moved data")
	}
}

func TestDirtyEvictionReachesBacking(t *testing.T) {
	h, b := testHierarchy(t, 1)
	// L1: 1KB 2-way = 8 sets. L2: 8KB 4-way = 32 sets. Write enough
	// distinct lines mapping everywhere to force evictions to memory.
	n := 512
	for i := 0; i < n; i++ {
		h.StoreWord(uint64(i*10), 0, mem.Addr(i*mem.LineSize), mem.Word(i))
	}
	if len(b.writeBacks) == 0 {
		t.Fatal("no dirty line ever reached the backing store")
	}
	// Every value must be recoverable from cache or backing.
	for i := 0; i < n; i++ {
		w, _, _ := h.LoadWord(1e9, 0, mem.Addr(i*mem.LineSize))
		if w != mem.Word(i) {
			t.Fatalf("line %d: read %d", i, w)
		}
	}
}

func TestHierarchyFwbScanForcesDirtyData(t *testing.T) {
	h, b := testHierarchy(t, 2)
	h.StoreWord(0, 0, 0x500, 5)
	h.StoreWord(0, 1, 0x600, 6)
	h.FwbScan(1000) // FLAG
	h.FwbScan(2000) // FWB: write-backs
	if b.img.ReadWord(0x500) != 5 || b.img.ReadWord(0x600) != 6 {
		t.Errorf("FWB scan did not persist dirty data: %d %d",
			b.img.ReadWord(0x500), b.img.ReadWord(0x600))
	}
	if h.DirtyAnywhere(0x500) || h.DirtyAnywhere(0x600) {
		t.Error("lines dirty after FWB pass")
	}
}

func TestScanDelaysDemandAccess(t *testing.T) {
	h, _ := testHierarchy(t, 1)
	h.StoreWord(0, 0, 0x40, 1)
	h.FwbScan(100)
	// A demand access right after the scan starts must wait for the scan.
	_, done, _ := h.LoadWord(101, 0, 0x40)
	scanCost := uint64(h.L1(0).NumLines()) // ScanCycles=1
	if done < 100+scanCost {
		t.Errorf("access during scan finished at %d, want >= %d", done, 100+scanCost)
	}
}

func TestFlushAllDirty(t *testing.T) {
	h, b := testHierarchy(t, 2)
	for i := 0; i < 20; i++ {
		h.StoreWord(uint64(i), i%2, mem.Addr(0x1000+i*mem.LineSize), mem.Word(i+1))
	}
	h.FlushAllDirty(500)
	for i := 0; i < 20; i++ {
		if got := b.img.ReadWord(mem.Addr(0x1000 + i*mem.LineSize)); got != mem.Word(i+1) {
			t.Fatalf("line %d not persisted: %d", i, got)
		}
	}
	if h.L1(0).DirtyCount()+h.L1(1).DirtyCount()+h.L2().DirtyCount() != 0 {
		t.Error("dirty lines remain after FlushAllDirty")
	}
}

func TestInvalidateAllLosesDirtyData(t *testing.T) {
	h, b := testHierarchy(t, 1)
	b.img.WriteWord(0x700, 1)
	h.StoreWord(0, 0, 0x700, 2)
	h.InvalidateAll()
	w, _, res := h.LoadWord(100, 0, 0x700)
	if w != 1 || res != HitMemory {
		t.Errorf("post-crash load = %d from %v, want stale 1 from memory", w, res)
	}
}

// Property-style test: under a random op stream — loads, stores, clwb
// flushes, FWB scan passes and emergency full flushes over a working set
// that overflows both L1 and L2 — the hierarchy must behave exactly like
// a flat memory (cache transparency), and once everything is flushed the
// backing must hold exactly the shadow's contents.
func TestCacheCoherentWithFlatMemory(t *testing.T) {
	h, b := testHierarchy(t, 2)
	const region = 32 << 10 // 4x the test L2, 32x one test L1
	shadow := map[mem.Addr]mem.Word{}
	rng := rand.New(rand.NewSource(7))
	now := uint64(0)
	for i := 0; i < 40000; i++ {
		addr := mem.Addr(rng.Intn(region)) &^ 7 // word-aligned
		core := rng.Intn(2)
		switch op := rng.Intn(100); {
		case op < 45:
			w := mem.Word(rng.Uint64())
			_, done, _ := h.StoreWord(now, core, addr, w)
			shadow[addr.WordAligned()] = w
			now = done
		case op < 90:
			w, done, _ := h.LoadWord(now, core, addr)
			if want := shadow[addr.WordAligned()]; w != want { // backing starts zeroed
				t.Fatalf("op %d: load %v = %#x, want %#x", i, addr, w, want)
			}
			now = done
		case op < 96:
			now, _ = h.Flush(now, core, addr)
		case op < 99:
			h.FwbScan(now)
		default:
			now = h.FlushAllDirty(now)
		}
		if i%1000 == 0 {
			if err := h.CheckAllCoherence(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	h.FlushAllDirty(now)
	for addr, want := range shadow {
		if got := b.img.ReadWord(addr); got != want {
			t.Fatalf("after the final flush backing[%v] = %#x, want %#x", addr, got, want)
		}
	}
}
