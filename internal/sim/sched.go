package sim

import (
	"errors"
	"fmt"
)

// Worker is one thread's workload body.
type Worker func(Ctx)

// Run executes one worker per hardware thread to completion (or until a
// scheduled crash). Scheduling is deterministic and conservatively
// time-ordered: every operation is executed by the thread with the
// smallest local clock (ties broken by thread ID), so shared structures
// are mutated in a reproducible global order, and no thread observes
// state "from its future" by more than one operation. After each of its
// operations a thread runs the scheduler's step itself (threadCtx.yield)
// and keeps going while it is still the pick and no crash is due; only a
// real switch, a thread finishing, or a crash passes through Run.
func (s *System) Run(workers []Worker) error {
	if len(workers) != s.cfg.Threads {
		return fmt.Errorf("sim: %d workers for %d threads", len(workers), s.cfg.Threads)
	}
	if s.crashed {
		return errors.New("sim: machine already crashed; build a new System or Recover")
	}
	for i, w := range workers {
		t := s.threads[i]
		t.finished = false
		t.aborted = false
		t.err = nil
		go t.run(w)
	}

	for t := s.pick(); t != nil; t = s.pick() {
		if s.crashDue(t) {
			s.crash(s.crashAt)
			for _, t := range s.threads {
				if !t.finished {
					t.aborted = true
					s.grant(t)
				}
			}
			return ErrCrashed
		}
		// The thread comes back either finished, or having housekept after
		// its last operation and found that it must not run the next one.
		s.grant(t)
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

// RunN is a convenience wrapper running the same worker body on every
// thread (the paper's "one persistent transaction per thread" pattern,
// Figure 4, generalized to a per-thread loop).
func (s *System) RunN(w func(ctx Ctx, thread int)) error {
	workers := make([]Worker, s.cfg.Threads)
	for i := range workers {
		i := i
		workers[i] = func(c Ctx) { w(c, i) }
	}
	return s.Run(workers)
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

// housekeep runs the background machinery at global (minimum) time.
func (s *System) housekeep() {
	gt := s.GlobalTime()
	if s.eng != nil {
		s.eng.FwbTick(gt)
	}
	s.ctl.Retire(gt)
}

// grant hands the machine to t's goroutine and waits for it to hand it back.
func (s *System) grant(t *threadCtx) {
	s.grants++
	t.resume <- struct{}{}
	<-t.ready
}
