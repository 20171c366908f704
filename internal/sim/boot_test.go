package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"pmemlog/internal/bench"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/sim"
	"pmemlog/internal/txn"
)

// TestFreshBootMatchesAttach pins that a fresh machine boots exactly as a
// restarted one does. In every cell, machine A comes from New and machine
// B Attaches A's just-saved, still-empty image; the same seeded hash
// workload, on a 16 KiB log so hardware logs wrap and fwb scans, must
// leave both with equal Stats and equal NVRAM images.
func TestFreshBootMatchesAttach(t *testing.T) {
	for _, mode := range txn.AllModes() {
		if spec := mode.Spec(); !spec.HWLog && !spec.SWLog {
			continue
		}
		for _, threads := range []int{1, 2} {
			for _, perThread := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%dt/perthread=%v", mode, threads, perThread), func(t *testing.T) {
					cfg := sim.DefaultConfig(mode, threads)
					cfg.Caches.L1.SizeBytes = 2 << 10
					cfg.Caches.L1.Ways = 2
					cfg.Caches.L2.SizeBytes = 16 << 10
					cfg.Caches.L2.Ways = 4
					cfg.NVRAMBytes = 4 << 20
					cfg.LogBytes = 16 << 10
					cfg.GrowReserveBytes = 1 << 20
					cfg.DRAMBytes = 64 << 10
					cfg.PerThreadLogs = perThread

					a := bootMachine(t, cfg)
					var img bytes.Buffer
					if err := a.SaveNVRAM(&img); err != nil {
						t.Fatal(err)
					}
					b := bootMachine(t, cfg)
					if _, err := b.Attach(&img); err != nil {
						t.Fatal(err)
					}
					runHash(t, a, threads)
					runHash(t, b, threads)

					sa, sb := a.Stats(), b.Stats()
					if sa != sb {
						t.Fatalf("fresh boot and attach diverged:\nNew:    %+v\nAttach: %+v", sa, sb)
					}
					if !a.NVRAMImage().Equal(b.NVRAMImage()) {
						t.Fatal("fresh boot and attach left different NVRAM images")
					}
					if mode == txn.FWB && sa.FwbScans == 0 {
						t.Error("fwb never scanned: the cell does not exercise the scan law")
					}
					if mode.Spec().HWLog && sa.LogAppends <= cfg.LogBytes/nvlog.FullEntrySize {
						t.Errorf("%d appends never wrap a %d B log", sa.LogAppends, cfg.LogBytes)
					}
				})
			}
		}
	}
}

func bootMachine(t *testing.T, cfg sim.Config) *sim.System {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runHash(t *testing.T, s *sim.System, threads int) {
	t.Helper()
	w, err := bench.New("hash", bench.Config{Elements: 1024, TxnsPerThread: 200, Threads: threads, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(s); err != nil {
		t.Fatal(err)
	}
	if err := s.RunN(w.Run); err != nil {
		t.Fatal(err)
	}
}
