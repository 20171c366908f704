package sim

import (
	"errors"
	"fmt"
	"iter"
)

// RunN runs w on every hardware thread to completion (or until a scheduled
// crash) — the paper's "one persistent transaction per thread" pattern,
// Figure 4, generalized to a per-thread loop. Each thread is an iter.Pull
// coroutine that RunN switches into and back from, so exactly one runs at
// a time.
// Scheduling is deterministic and conservatively time-ordered: every
// operation is executed by the thread with the smallest local clock (ties
// broken by thread ID), so shared structures are mutated in a reproducible
// global order, and no thread observes state "from its future" by more
// than one operation. After each of its operations a thread runs the
// scheduler's step itself (threadCtx.yield) and keeps going while it is
// still the pick and no crash is due; only a real switch, a thread
// finishing, or a crash passes through RunN.
func (s *System) RunN(w func(ctx Ctx, thread int)) error {
	if s.crashed {
		return errors.New("sim: machine already crashed; build a new System or Recover")
	}
	for _, t := range s.threads {
		t.finished = false
		t.err = nil
		t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
			t.yieldFn = yield
			t.run(w)
		})
	}

	for t := s.pick(); t != nil; t = s.pick() {
		if s.crashDue(t) {
			s.crash(s.crashAt)
			// stop unwinds a suspended thread (crashFault); otherwise a no-op.
			for _, t := range s.threads {
				t.stop()
			}
			return ErrCrashed
		}
		// Grant: t's coroutine comes back either finished, or having housekept
		// after its last operation and found that it must not run the next.
		s.grants++
		t.next()
		if t.finished {
			s.housekeep()
		}
	}

	var errs []error
	for i, t := range s.threads {
		if t.err != nil {
			errs = append(errs, fmt.Errorf("thread %d: %w", i, t.err))
		}
	}
	return errors.Join(errs...)
}

// pick returns the unfinished thread with the smallest local clock, ties
// broken by thread ID; nil when every thread has finished.
func (s *System) pick() *threadCtx {
	var tmin *threadCtx
	for _, t := range s.threads {
		if !t.finished && (tmin == nil || t.core.Now() < tmin.core.Now()) {
			tmin = t
		}
	}
	return tmin
}

// crashDue reports whether the scheduled crash fires before pick's next
// operation: global time (pick's clock) has reached the scheduled cycle.
func (s *System) crashDue(pick *threadCtx) bool {
	return s.crashAt > 0 && !s.crashed && pick.core.Now() >= s.crashAt
}

// housekeep runs the background machinery at global (minimum) time. The
// revert record is never trimmed past a scheduled crash: global time can
// already be past it here (the crash fires at the next pick), and the
// crash must still revert every write completing after its cycle.
func (s *System) housekeep() {
	gt := s.GlobalTime()
	if s.eng != nil {
		s.eng.FwbTick(gt)
	}
	if s.crashAt > 0 {
		gt = min(gt, s.crashAt)
	}
	s.ctl.Retire(gt)
}
