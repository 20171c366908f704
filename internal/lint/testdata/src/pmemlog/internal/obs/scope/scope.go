// Fixtures for the obshotpath analyzer, scope side: the cost ledger's
// Note* methods run per store / per log record / per write-back inside
// the shard loop, so only the atomic obs fast paths are tolerable
// there; grabbing registry handles or value snapshots flags.
package scope

import "pmemlog/internal/obs"

// LineSketch is the fixed-size recurrence set under analysis.
type LineSketch struct {
	epoch uint64
}

// Touch is hot: pure array probing, no obs surface at all.
//
//pmlint:hot
func (s *LineSketch) Touch(tag uint64) bool { return tag == s.epoch }

// Clear is hot: the O(1) epoch bump.
//
//pmlint:hot
func (s *LineSketch) Clear() { s.epoch++ }

// Counters is the per-machine cost ledger under analysis.
type Counters struct {
	payload  uint64
	txnLines LineSketch
	debug    *obs.Counter
	reg      *obs.Registry
	hist     *obs.Histogram
	snap     obs.HistogramSnapshot
}

// NoteStore is hot: plain field bumps and allowed atomic handles only.
//
//pmlint:hot
func (c *Counters) NoteStore(handle, line, payloadBytes uint64) {
	c.payload += payloadBytes
	c.debug.Inc()
	if c.txnLines.Touch(handle ^ line) {
		c.debug.Add(1)
	}
}

// NoteTxnCommit is hot: retiring the line set must stay an epoch bump;
// registry lookups belong in setup.
//
//pmlint:hot
func (c *Counters) NoteTxnCommit(payloadBytes, logBytes uint64) {
	c.txnLines.Clear()
	h := c.reg.Histogram("txn_amp", "", "") // want "obs.Registry.Histogram inside hot function Counters.NoteTxnCommit"
	h.Observe(logBytes)
}

// NoteScan is hot: a value snapshot allocates per call and flags.
//
//pmlint:hot
func (c *Counters) NoteScan() {
	c.snap = c.hist.Snapshot() // want "obs.Histogram.Snapshot inside hot function Counters.NoteScan"
	c.hist.SnapshotInto(&c.snap)
}

// Publish is cold: the machine owner renders the ledger into gauges
// outside the per-event path, where the registry surface is fine.
func (c *Counters) Publish() {
	c.reg.Gauge("scope_payload_bytes", "", "").Set(int64(c.payload))
}
