// Fixtures for the obshotpath analyzer, pulse side: the windowed
// collector's tick and per-request exemplar offer run while traffic
// lands, so only the atomic snapshot fast paths are allowed there; the
// cold document builder may use the heavyweight surface freely.
package pulse

import "pmemlog/internal/obs"

// Collector is the windowed telemetry snapshotter under analysis.
type Collector struct {
	reg  *obs.Registry
	hist *obs.Histogram
	reqs *obs.Counter
	prev obs.HistogramSnapshot
	cur  obs.HistogramSnapshot
	out  obs.HistogramSnapshot
}

// Tick closes one window: the hot path under analysis.
//
//pmlint:hot
func (c *Collector) Tick() {
	c.hist.SnapshotInto(&c.cur)
	c.cur.DeltaSince(&c.prev, &c.out)
	_ = c.reqs.Value()

	c.cur = c.hist.Snapshot()           // want "obs.Histogram.Snapshot inside hot function Collector.Tick"
	h := c.reg.Histogram("e2e", "", "") // want "obs.Registry.Histogram inside hot function Collector.Tick"
	h.SnapshotInto(&c.cur)

	//pmlint:allow obshotpath
	_ = c.hist.Snapshot()
}

// NoteFinished offers one finished request as a tail exemplar: hot.
//
//pmlint:hot
func (c *Collector) NoteFinished(latNS int64) {
	c.reqs.Inc()
	c.hist.Observe(uint64(latNS))
	_ = obs.NewRegistry() // want "obs.NewRegistry inside hot function Collector.NoteFinished"
}

// BuildDoc renders the telemetry document: the cold path, where the
// locking registry surface and value snapshots are fine.
func (c *Collector) BuildDoc() uint64 {
	s := c.hist.Snapshot()
	_ = c.reg.Counter("reqs", "", "")
	return s.Quantile(0.99)
}
