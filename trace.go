package pmemlog

import (
	"io"

	"pmemlog/internal/bench"
	"pmemlog/internal/sim"
	"pmemlog/internal/trace"
)

// Trace is a recorded workload operation stream (the analogue of the Pin
// traces that drive McSimA+). Record once, replay against any machine
// configuration with identical memory behaviour.
type Trace = trace.Trace

// ReadTrace deserializes a trace written with Trace.WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// RecordMicro runs a microbenchmark once while capturing its operation
// stream, returning the trace and the recording run's metrics.
func RecordMicro(benchName string, mode Mode, threads int, p Params) (*Trace, Run, error) {
	w, sys, err := buildMicro(benchName, mode, threads, p)
	if err != nil {
		return nil, Run{}, err
	}
	workers := make([]sim.Worker, threads)
	for i := range workers {
		i := i
		workers[i] = func(ctx Ctx) { w.Run(ctx, i) }
	}
	tr, err := trace.Record(sys, workers)
	if err != nil {
		return nil, Run{}, err
	}
	return tr, sys.Stats(), nil
}

// ReplayMicro replays a trace recorded by RecordMicro against a fresh
// machine of the given design. The benchmark name and parameters must
// match the recording so the Setup population (and therefore every
// recorded address) lines up.
func ReplayMicro(tr *Trace, benchName string, mode Mode, threads int, p Params) (Run, error) {
	_, sys, err := buildMicro(benchName, mode, threads, p)
	if err != nil {
		return Run{}, err
	}
	if err := sys.Run(tr.Workers()); err != nil {
		return Run{}, err
	}
	return sys.Stats(), nil
}

func buildMicro(benchName string, mode Mode, threads int, p Params) (bench.Workload, *System, error) {
	w, err := p.micro(benchName, threads, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	sys, err := p.populate(benchName, w, mode, threads)
	return w, sys, err
}
