package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pmemlog"
	"pmemlog/internal/bench"
)

// declareRecover is `pmctl recover`, the paper's crash-recovery path end
// to end: it runs a transactional workload, cuts power at a chosen (or
// random) cycle, runs the four-step recovery procedure (Section IV-F)
// against the surviving NVRAM image, and verifies atomicity + durability
// against the committed-state oracle.
//
//	pmctl recover -mode fwb -crash-frac 0.5
//	pmctl recover -mode fwb -trials 20            # randomized crash points
//	pmctl recover -mode sw-ulog                   # watch an UNSAFE design fail
func declareRecover(fs *flag.FlagSet) func(*env) int {
	var (
		in        = declareSimInput(fs, simDefaults{threads: 2, elements: 4096, txns: 150, logKB: 1024})
		crashFrac = fs.Float64("crash-frac", -1, "crash point as a fraction of the run (negative = random)")
		trials    = fs.Int("trials", 5, "number of crash trials")
		seed      = fs.Int64("seed", 1, "crash-point RNG seed")
		saveImage = fs.String("save-image", "", "after the first crash, save the NVRAM DIMM image to this file (pre-recovery)")
		loadImage = fs.String("load-image", "", "attach a saved DIMM image, recover it, and dump the log")
		dumpLog   = fs.Bool("dump-log", false, "print the surviving log records before recovery")
	)
	return func(e *env) int {
		mode, err := pmemlog.ParseMode(*in.mode)
		if err != nil {
			return e.fail(1, err)
		}
		base := pmemlog.QuickParams()
		base.Seed = 7
		c := crashCell{bench: *in.bench, mode: mode, threads: *in.threads, p: in.params(base)}

		if *loadImage != "" {
			if err := c.attachAndRecover(e.out, *loadImage, *dumpLog); err != nil {
				return e.fail(1, err)
			}
			return 0
		}

		// Probe run: learn the uncrashed duration.
		//pmlint:allow quiesceorder -- runOnce deliberately saves mid-crash images without draining; quiescing would destroy the crash evidence
		total, err := c.runOnce(e.out, 0, "")
		if err != nil {
			return e.fail(1, err)
		}
		fmt.Fprintf(e.out, "uncrashed run: %d cycles\n", total)

		rng := rand.New(rand.NewSource(*seed))
		failures := 0
		for trial := 0; trial < *trials; trial++ {
			var crashAt uint64
			if *crashFrac >= 0 {
				crashAt = uint64(*crashFrac * float64(total))
			} else {
				crashAt = uint64(rng.Int63n(int64(total))) + 1
			}
			save := ""
			if trial == 0 {
				save = *saveImage
			}
			//pmlint:allow quiesceorder -- runOnce deliberately saves mid-crash images without draining; quiescing would destroy the crash evidence
			if _, err := c.runOnce(e.out, crashAt, save); err != nil {
				failures++
				fmt.Fprintf(e.out, "trial %2d: crash@%-10d  VIOLATION: %v\n", trial, crashAt, err)
			} else {
				fmt.Fprintf(e.out, "trial %2d: crash@%-10d  consistent\n", trial, crashAt)
			}
			if *crashFrac >= 0 {
				break
			}
		}
		if failures > 0 {
			if !mode.Spec().Persistent {
				fmt.Fprintf(e.out, "\n%d/%d trials inconsistent — expected: %q gives NO persistence guarantee.\n",
					failures, *trials, mode)
				return 0
			}
			fmt.Fprintf(e.out, "\n%d/%d trials inconsistent — this should never happen for %q!\n",
				failures, *trials, mode)
			return 1
		}
		fmt.Fprintf(e.out, "\nall trials consistent: committed transactions durable, uncommitted rolled back.\n")
		return 0
	}
}

// crashCell is the workload and machine every trial rebuilds from scratch.
type crashCell struct {
	bench   string
	mode    pmemlog.Mode
	threads int
	p       pmemlog.Params
}

// system builds the cell's machine with the committed-state oracle on.
func (c crashCell) system() (*pmemlog.System, error) {
	cfg := c.p.Config(c.mode, c.threads)
	cfg.TrackOracle = true
	return pmemlog.NewSystem(cfg)
}

// populated builds the machine and sets the workload up on it.
func (c crashCell) populated() (*pmemlog.System, bench.Workload, error) {
	sys, err := c.system()
	if err != nil {
		return nil, nil, err
	}
	w, err := bench.New(c.bench, bench.Config{
		Elements: c.p.Elements, TxnsPerThread: c.p.TxnsPerThread, Threads: c.threads, Seed: c.p.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return sys, w, w.Setup(sys)
}

// attachAndRecover loads a saved DIMM image into a fresh machine (a
// different "process" than the one that crashed), optionally dumps the
// surviving log, runs recovery, and reports what it did.
func (c crashCell) attachAndRecover(out io.Writer, path string, dump bool) error {
	sys, err := c.system()
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.LoadNVRAM(f); err != nil {
		return err
	}
	if dump {
		entries, err := sys.DumpLog()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "surviving log records (%d):\n", len(entries))
		for i, e := range entries {
			kind := [4]string{"?", "header", "update", "commit"}[e.Kind]
			fmt.Fprintf(out, "  %4d  tx=%-5d thr=%d %-7s addr=%v undo=%#x redo=%#x\n",
				i, e.TxID, e.ThreadID, kind, e.Addr, uint64(e.Undo), uint64(e.Redo))
		}
	}
	rep, err := sys.Recover()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "recovered %s image: %d records scanned, %d transactions redone, %d rolled back (%d redo / %d undo writes)\n",
		path, rep.EntriesScanned, len(rep.Committed), len(rep.Uncommitted), rep.RedoWrites, rep.UndoWrites)
	return nil
}

// runOnce executes the workload; with crashAt > 0 it crashes, recovers and
// verifies, returning an error describing any consistency violation.
func (c crashCell) runOnce(out io.Writer, crashAt uint64, savePath string) (uint64, error) {
	sys, w, err := c.populated()
	if err != nil {
		return 0, err
	}
	if crashAt > 0 {
		sys.ScheduleCrash(crashAt)
	}
	err = sys.RunN(w.Run)
	switch {
	case crashAt == 0:
		if err != nil {
			return 0, err
		}
		return sys.WallCycles(), nil
	case !errors.Is(err, pmemlog.ErrCrashed):
		return 0, fmt.Errorf("run ended without crashing: %v", err)
	}
	if savePath != "" {
		if err := sys.NVRAMImage().WriteFile(savePath); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "saved crashed DIMM image to %s (recover it with -load-image)\n", savePath)
	}
	rep, err := sys.Recover()
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	if bad := sys.VerifyRecovery(rep, crashAt); len(bad) > 0 {
		return 0, fmt.Errorf("%d violations, first: %s", len(bad), bad[0])
	}
	return 0, nil
}
