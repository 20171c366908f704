// Fixtures for the noallochotpath analyzer, scope side: the cost
// ledger is bumped per persistent store inside the shard loop and its
// sketches are fixed arrays cleared by an epoch bump — materializing a
// per-event slice or map flags.
package scope

type sketchSlot struct {
	tag   uint64
	epoch uint64
}

// LineSketch is the fixed-size recurrence set under analysis.
type LineSketch struct {
	epoch uint64
	slots [16]sketchSlot
}

// Touch is hot: probing the fixed array allocates nothing.
//
//pmlint:hot
func (s *LineSketch) Touch(tag uint64) bool {
	for p := uint64(0); p < 4; p++ {
		sl := &s.slots[(tag+p)&15]
		if sl.epoch == s.epoch && sl.tag == tag {
			return true
		}
		if sl.epoch != s.epoch || sl.tag == 0 {
			sl.tag, sl.epoch = tag, s.epoch
			return false
		}
	}
	return false
}

// Clear is hot: the O(1) epoch bump must never rebuild the array.
//
//pmlint:hot
func (s *LineSketch) Clear() {
	s.epoch++
	stale := make([]uint64, len(s.slots)) // want "make\\(\\) into a local inside hot function LineSketch.Clear"
	_ = stale
}

// Counters is the per-machine cost ledger under analysis.
type Counters struct {
	payload  uint64
	txnLines LineSketch
	scratch  []uint64
}

// NoteStore is hot: field bumps and sketch probes only.
//
//pmlint:hot
func (c *Counters) NoteStore(handle, line, payloadBytes uint64) {
	c.payload += payloadBytes
	c.txnLines.Touch(handle ^ line)
}

// NoteTxnCommit is hot: folding the per-txn ratio must not journal
// per-commit state into a fresh slice.
//
//pmlint:hot
func (c *Counters) NoteTxnCommit(payloadBytes, logBytes uint64) {
	c.txnLines.Clear()
	c.scratch = append([]uint64{}, logBytes/payloadBytes) // want "append onto a freshly allocated slice inside hot function Counters.NoteTxnCommit"
}

// reset is cold: one-time scratch allocation at wiring is the
// sanctioned amortized shape.
func (c *Counters) reset() {
	c.scratch = make([]uint64, 0, 8)
}
