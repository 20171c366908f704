package memctl

import (
	"testing"

	"pmemlog/internal/dram"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvram"
)

const nvBase = mem.Addr(1 << 20) // NVRAM mapped above DRAM

func testDevices(t *testing.T) (*nvram.Device, *dram.Device) {
	t.Helper()
	nv, err := nvram.New(nvram.Config{
		Banks: 8, RowBytes: 2048,
		RowHitCycles: 90, ReadMissCycles: 250, WriteMissCycles: 750,
		BusCyclesPerLine:   10,
		RowBufReadPJPerBit: 0.93, RowBufWritePJPerBit: 1.02,
		ArrayReadPJPerBit: 2.47, ArrayWritePJPerBit: 16.82,
	}, nvBase, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := dram.New(dram.Config{Banks: 8, AccessCycles: 125, BusCyclesLine: 5}, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return nv, dr
}

func testCtl(t *testing.T, wcb, logbuf int) *Controller {
	t.Helper()
	nv, dr := testDevices(t)
	c, err := New(Config{ReadQueue: 64, WriteQueue: 64, WCBEntries: wcb, LogBufferEntries: logbuf, QueueCycles: 2}, nv, dr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if (Config{ReadQueue: 0, WriteQueue: 1}).Validate() == nil {
		t.Error("zero read queue accepted")
	}
	if (Config{ReadQueue: 1, WriteQueue: 1, WCBEntries: -1}).Validate() == nil {
		t.Error("negative WCB accepted")
	}
}

func TestRoutingNVRAMvsDRAM(t *testing.T) {
	c := testCtl(t, 4, 8)
	var ln mem.Line
	ln.SetWord(0, 5)
	c.WriteBackLine(0, nvBase, &ln)
	c.WriteBackLine(0, 0x100, &ln) // DRAM address
	if c.NVRAM().Stats().Writes != 1 {
		t.Errorf("NVRAM writes = %d, want 1", c.NVRAM().Stats().Writes)
	}
	var got mem.Line
	c.FetchLine(100, nvBase, &got)
	if got.Word(0) != 5 {
		t.Error("NVRAM round trip failed")
	}
	c.FetchLine(100, 0x100, &got)
	if got.Word(0) != 5 {
		t.Error("DRAM round trip failed")
	}
}

func TestWCBCoalescing(t *testing.T) {
	c := testCtl(t, 4, 8)
	// Two word writes to the same line coalesce into one slot; a drain
	// produces a single NVRAM transfer of 16 bytes.
	c.UncacheableWrite(0, nvBase, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	c.UncacheableWrite(1, nvBase+8, []byte{9, 10, 11, 12, 13, 14, 15, 16})
	if c.Stats().LogCoalesced != 1 {
		t.Errorf("coalesced = %d, want 1", c.Stats().LogCoalesced)
	}
	c.DrainBuffers(10)
	nvs := c.NVRAM().Stats()
	// One coalesced drain; the 16 payload bytes occupy one 64 B burst.
	if nvs.Writes != 1 || nvs.BytesWritten != 64 {
		t.Errorf("drained %d writes / %d bytes, want 1/64", nvs.Writes, nvs.BytesWritten)
	}
	got := c.NVRAM().Image().Read(nvBase, 16)
	for i := 0; i < 16; i++ {
		if got[i] != byte(i+1) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestWCBFIFODisplacement(t *testing.T) {
	c := testCtl(t, 2, 8)
	// Three distinct lines through a 2-slot WCB: the first line must drain.
	c.UncacheableWrite(0, nvBase, []byte{1})
	c.UncacheableWrite(1, nvBase+64, []byte{2})
	c.UncacheableWrite(2, nvBase+128, []byte{3})
	if got := c.NVRAM().Stats().Writes; got != 1 {
		t.Errorf("NVRAM writes after displacement = %d, want 1", got)
	}
	if got := c.NVRAM().Image().Read(nvBase, 1)[0]; got != 1 {
		t.Errorf("displaced slot byte = %d, want 1", got)
	}
}

func TestUnbufferedLogStallsAtNVRAMSpeed(t *testing.T) {
	c := testCtl(t, 4, 0) // no log buffer
	done1 := c.AppendLog(0, nvBase+0x1000, make([]byte, 64))
	if done1 < 90 {
		t.Errorf("unbuffered append returned %d, want >= NVRAM latency", done1)
	}
	done2 := c.AppendLog(done1, nvBase+0x1040, make([]byte, 64))
	if done2 <= done1 {
		t.Error("second unbuffered append did not serialize")
	}
}

func TestBufferedLogIsFastUntilFull(t *testing.T) {
	c := testCtl(t, 4, 4)
	now := uint64(0)
	// First 4 distinct lines: near-instant (buffered).
	for i := 0; i < 4; i++ {
		done := c.AppendLog(now, nvBase+0x1000+mem.Addr(i*64), make([]byte, 64))
		if done > now+1 {
			t.Fatalf("append %d stalled: %d -> %d", i, now, done)
		}
		now = done
	}
	// Subsequent appends displace the oldest slot into NVRAM; the producer
	// itself only waits when the write QUEUE is saturated, so a burst far
	// exceeding the 64-deep queue must eventually record stalls.
	for i := 4; i < 200; i++ {
		now = c.AppendLog(now, nvBase+0x1000+mem.Addr(i*64), make([]byte, 64))
	}
	if got := c.NVRAM().Stats().Writes; got < 190 {
		t.Errorf("displacements drained only %d lines", got)
	}
	if c.Stats().LogBufStalls == 0 {
		t.Error("a 200-line burst never saturated the 64-deep write queue")
	}
}

func TestDrainBuffersMakesDurable(t *testing.T) {
	c := testCtl(t, 4, 4)
	c.AppendLog(0, nvBase+0x2000, []byte{42})
	// Not yet drained: a crash right now loses it.
	done := c.DrainBuffers(5)
	if done <= 5 {
		t.Error("drain reported no work")
	}
	if got := c.NVRAM().Image().Read(nvBase+0x2000, 1)[0]; got != 42 {
		t.Errorf("drained byte = %d", got)
	}
}

func TestCrashRevertsInFlightWrites(t *testing.T) {
	c := testCtl(t, 4, 8)
	img := c.NVRAM().Image()
	img.WriteWord(nvBase+0x3000, 111) // pre-crash durable value

	var ln mem.Line
	ln.SetWord(0, 222)
	done := c.WriteBackLine(1000, nvBase+0x3000, &ln)

	// Crash before the write completes: the old value must reappear.
	reverted := c.Crash(done - 1)
	if reverted != 1 {
		t.Fatalf("reverted %d writes, want 1", reverted)
	}
	if got := img.ReadWord(nvBase + 0x3000); got != 111 {
		t.Errorf("post-crash word = %d, want 111", got)
	}
}

func TestCrashKeepsCompletedWrites(t *testing.T) {
	c := testCtl(t, 4, 8)
	img := c.NVRAM().Image()
	var ln mem.Line
	ln.SetWord(0, 333)
	done := c.WriteBackLine(0, nvBase+0x3000, &ln)
	if n := c.Crash(done); n != 0 {
		t.Fatalf("reverted %d completed writes", n)
	}
	if got := img.ReadWord(nvBase + 0x3000); got != 333 {
		t.Errorf("completed write lost: %d", got)
	}
}

func TestCrashRevertsOverlappingWritesInOrder(t *testing.T) {
	c := testCtl(t, 4, 8)
	img := c.NVRAM().Image()
	img.WriteWord(nvBase, 1)
	var a, b mem.Line
	a.SetWord(0, 2)
	b.SetWord(0, 3)
	c.WriteBackLine(1000, nvBase, &a)
	c.WriteBackLine(2000, nvBase, &b)
	c.Crash(999) // neither write completed
	if got := img.ReadWord(nvBase); got != 1 {
		t.Errorf("overlapping revert produced %d, want 1", got)
	}
}

func TestCrashDropsBufferedLogRecords(t *testing.T) {
	c := testCtl(t, 4, 8)
	c.AppendLog(0, nvBase+0x4000, []byte{9})
	c.Crash(1 << 40)
	if got := c.NVRAM().Image().Read(nvBase+0x4000, 1)[0]; got != 0 {
		t.Errorf("buffered log record survived crash: %d", got)
	}
}

func TestCrashClearsDRAM(t *testing.T) {
	c := testCtl(t, 4, 8)
	var ln mem.Line
	ln.SetWord(0, 7)
	c.WriteBackLine(0, 0x100, &ln)
	c.Crash(1 << 40)
	var got mem.Line
	c.FetchLine(0, 0x100, &got)
	if got.Word(0) != 0 {
		t.Error("DRAM contents survived crash")
	}
}

func TestRetirePrunesRevertRecords(t *testing.T) {
	c := testCtl(t, 4, 8)
	var ln mem.Line
	var lastDone uint64
	for i := 0; i < 2000; i++ {
		lastDone = c.WriteBackLine(uint64(i)*1000, nvBase+mem.Addr(i%64)*64, &ln)
	}
	before := len(c.pending)
	c.Retire(lastDone)
	if len(c.pending) >= before {
		t.Errorf("Retire kept %d of %d records", len(c.pending), before)
	}
	// A crash after retire must not revert the already-safe writes.
	if n := c.Crash(lastDone); n != 0 {
		t.Errorf("crash reverted %d retired writes", n)
	}
}

// TestRetireKeepsRecordNearWritesInFlight: trimmed at each issue cycle,
// the revert record holds the writes in flight and not much more,
// however long the run.
func TestRetireKeepsRecordNearWritesInFlight(t *testing.T) {
	c := testCtl(t, 4, 8)
	var ln mem.Line
	most := 0
	for i := uint64(0); i < 2000; i++ {
		c.WriteBackLine(i*1000, nvBase+mem.Addr(i%64)*64, &ln)
		c.Retire(i * 1000)
		most = max(most, len(c.pending))
	}
	if most > 8 {
		t.Errorf("revert record grew to %d entries with about one write in flight", most)
	}
}

// TestUntimedWritesSurviveCrash: an untimed write (boot format,
// population) has no completion cycle, so no crash reverts it.
func TestUntimedWritesSurviveCrash(t *testing.T) {
	c := testCtl(t, 4, 8)
	c.WriteUntimed(nvBase+0x5000, []byte{1, 2, 3})
	if n := c.Crash(0); n != 0 {
		t.Errorf("crash reverted %d writes, want none", n)
	}
	if got := c.NVRAM().Image().Read(nvBase+0x5000, 3); got[0] != 1 || got[2] != 3 {
		t.Errorf("untimed write lost: %v", got)
	}
}

func TestLineCrossingPanics(t *testing.T) {
	c := testCtl(t, 4, 8)
	defer func() {
		if recover() == nil {
			t.Error("line-crossing buffered write accepted")
		}
	}()
	c.UncacheableWrite(0, nvBase+60, make([]byte, 8))
}
