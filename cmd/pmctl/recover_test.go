package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pmemlog"
)

// testCrashCell is the command's default cell (hash, fwb, 2 threads, 4096
// elements, a 1 MB log) at 60 transactions per thread.
func testCrashCell() crashCell {
	p := pmemlog.QuickParams()
	p.Seed, p.Elements, p.TxnsPerThread = 7, 4096, 60
	return crashCell{bench: "hash", mode: pmemlog.FWB, threads: 2, p: p}
}

// TestCrashTrialsConsistent drives the command's own trial loop body over
// randomized crash points: every trial must recover to a consistent state
// (committed durable, uncommitted rolled back).
func TestCrashTrialsConsistent(t *testing.T) {
	c := testCrashCell()
	total, err := c.runOnce(io.Discard, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("probe run reported zero cycles")
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		crashAt := uint64(rng.Int63n(int64(total))) + 1
		if _, err := c.runOnce(io.Discard, crashAt, ""); err != nil {
			t.Fatalf("trial %d (crash@%d): %v", trial, crashAt, err)
		}
	}
}

// TestSaveImageAttachRecover is the cross-process e2e path: crash
// mid-workload, save the DIMM image to disk, attach it from a fresh
// machine (the command's -load-image path), and assert the recovered heap
// matches the crashed machine's committed-state oracle word for word.
func TestSaveImageAttachRecover(t *testing.T) {
	c := testCrashCell()
	total, err := c.runOnce(io.Discard, 0, "")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		crashAt := uint64(rng.Int63n(int64(total))) + 1

		// The crashing "process", mirroring runOnce but keeping the system
		// so its oracle survives for the audit.
		sys, w, err := c.populated()
		if err != nil {
			t.Fatal(err)
		}
		sys.ScheduleCrash(crashAt)
		if err := sys.RunN(w.Run); !errors.Is(err, pmemlog.ErrCrashed) {
			t.Fatalf("trial %d: run ended without crashing: %v", trial, err)
		}
		path := filepath.Join(t.TempDir(), "crash.img")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SaveNVRAM(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		// The command's -load-image path must succeed end to end.
		if err := c.attachAndRecover(io.Discard, path, false); err != nil {
			t.Fatalf("trial %d: attachAndRecover: %v", trial, err)
		}

		// In-process recovery is the ground truth: it must satisfy the
		// committed-state oracle (durably-committed transactions present,
		// uncommitted rolled back; a transaction whose commit record was
		// still in the volatile log buffer at power-cut may legitimately
		// land on either side).
		rep, err := sys.Recover()
		if err != nil {
			t.Fatalf("trial %d: in-process recover: %v", trial, err)
		}
		if len(sys.CommittedOracle()) == 0 {
			t.Fatalf("trial %d: committed-state oracle is empty; crash@%d too early to prove anything", trial, crashAt)
		}
		if bad := sys.VerifyRecovery(rep, crashAt); len(bad) > 0 {
			t.Fatalf("trial %d: %d oracle violations, first: %s", trial, len(bad), bad[0])
		}

		// Cross-process recovery of the saved image must then reproduce the
		// in-process result exactly — the -save-image / -load-image round
		// trip loses nothing.
		fresh, err := c.system()
		if err != nil {
			t.Fatal(err)
		}
		f2, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadNVRAM(f2); err != nil {
			t.Fatal(err)
		}
		f2.Close()
		if _, err := fresh.Recover(); err != nil {
			t.Fatalf("trial %d: cross-process recover: %v", trial, err)
		}
		var inProc, crossProc bytes.Buffer
		if err := sys.SaveNVRAM(&inProc); err != nil {
			t.Fatal(err)
		}
		if err := fresh.SaveNVRAM(&crossProc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inProc.Bytes(), crossProc.Bytes()) {
			t.Fatalf("trial %d: cross-process recovered image diverges from in-process recovery", trial)
		}
	}
}
