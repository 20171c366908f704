package pmemlog

import (
	"fmt"

	"pmemlog/internal/obs"
)

// Observability facade: re-exported tracer types plus a one-call
// "trace a microbenchmark" entry point used by pmctl trace.

type (
	// Tracer is the low-overhead event tracer (see internal/obs).
	Tracer = obs.Tracer
	// TraceEvent is one decoded trace record.
	TraceEvent = obs.Event
)

// TraceMicro runs one microbenchmark cell with an event tracer
// attached, returning the captured events (timestamp-sorted), the ring
// names for export labelling, and the run's aggregate stats. perRing
// bounds each ring's record count (oldest records are overwritten
// beyond it). Population/setup is not traced — recording starts at the
// measured region, like the stats themselves.
func TraceMicro(benchName string, mode Mode, threads int, p Params, perRing int) ([]TraceEvent, []string, Run, error) {
	w, err := p.micro(benchName, threads, p.Seed)
	if err != nil {
		return nil, nil, Run{}, err
	}
	sys, err := p.populate(benchName, w, mode, threads)
	if err != nil {
		return nil, nil, Run{}, err
	}
	tr := sys.AttachTracer(perRing)
	tr.Enable()
	err = sys.RunN(w.Run)
	tr.Disable()
	if err != nil {
		return nil, nil, Run{}, fmt.Errorf("%s/%s/%dt: %w", benchName, mode, threads, err)
	}
	return tr.Snapshot(), sys.TracerRingNames(), sys.Stats(), nil
}
