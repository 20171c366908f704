// Fixtures for the obshotpath analyzer: a server-shaped shard whose
// request loop mixes sanctioned atomic-handle calls with the locking
// and allocating obs entry points that must be flagged there — and the
// same heavyweight calls in cold functions, which must pass.
package server

import (
	"io"

	"pmemlog/internal/chaos"
	"pmemlog/internal/obs"
)

// Config describes one server instance.
type Config struct {
	Addr  string
	Chaos *chaos.Injector
}

type shard struct {
	id     int
	tracer *obs.Tracer
	reg    *obs.Registry
	hist   *obs.Histogram
	count  *obs.Counter
	gauge  *obs.Gauge
}

// loop is the shard worker: the hot path under analysis.
//
//pmlint:hot
func (sh *shard) loop() {
	for i := 0; i < 4; i++ {
		sh.runBatch()
	}
}

//pmlint:hot
func (sh *shard) runBatch() {
	if sh.tracer.Enabled() {
		sh.tracer.Emit(sh.id, 0, 0, 0, 0)
		sh.tracer.EmitSpan(sh.id, 0, 0, 0, 0, 7)
	}
	_ = sh.tracer.RingStats() // want "obs.Tracer.RingStats inside hot function shard.runBatch"
	sh.count.Inc()
	sh.count.Add(2)
	sh.gauge.Set(1)
	sh.gauge.Add(-1)
	sh.hist.Observe(17)
	sh.apply()

	h := sh.reg.Histogram("lat", "", "") // want "obs.Registry.Histogram inside hot function shard.runBatch"
	h.Observe(1)
}

//pmlint:hot
func (sh *shard) apply() {
	sh.hist.Observe(3)
	sh.reg.Counter("reqs", "", "").Inc() // want "obs.Registry.Counter inside hot function shard.apply"
	_ = sh.tracer.Snapshot()             // want "obs.Tracer.Snapshot inside hot function shard.apply"
	sh.tracer.Reset()                    // want "obs.Tracer.Reset inside hot function shard.apply"
}

//pmlint:hot
func (sh *shard) drain() {
	_ = obs.NewRegistry() // want "obs.NewRegistry inside hot function shard.drain"
}

// initObs is setup code: registry lookups are fine off the hot path.
func (sh *shard) initObs() {
	sh.reg = obs.NewRegistry()
	sh.hist = sh.reg.Histogram("lat", "", "")
	sh.count = sh.reg.Counter("reqs", "", "")
	sh.gauge = sh.reg.Gauge("queue", "", "")
}

// metricsResponse is the cold render path.
func (sh *shard) metricsResponse(w io.Writer) error {
	return sh.reg.WritePrometheus(w)
}

// waived is suppressed one line at a time.
//
//pmlint:hot
func (sh *shard) collect() {
	//pmlint:allow obshotpath
	_ = sh.reg.Gauge("depth", "", "")
}

// publish and publishUnmarked are the annotation pair: the same
// violating body is flagged under the directive and silent without it,
// whatever the function is called.
//
//pmlint:hot
func (sh *shard) publish() {
	_ = sh.tracer.RingStats() // want "obs.Tracer.RingStats inside hot function shard.publish"
}

func (sh *shard) publishUnmarked() {
	_ = sh.tracer.RingStats()
}
