// Fixtures for the noallochotpath analyzer, flight-recorder side: the
// span table's request path (Acquire/Finish and the Span setters) must
// stay allocation-free — it runs inside the same conn-reader and shard
// loops whose 0 allocs/op the perf tests guard.
package flight

type SpanSnapshot struct{ ID uint64 }

type Span struct {
	id    uint64
	notes []byte
}

// Begin is hot: arming a preallocated slot must not allocate.
//
//pmlint:hot
func (sp *Span) Begin(id uint64) {
	sp.id = id
	sp.notes = sp.notes[:0]
}

// Mark is hot: a fresh per-mark buffer flags.
//
//pmlint:hot
func (sp *Span) Mark(stage int) {
	buf := make([]byte, 8) // want "make\\(\\) into a local inside hot function Span.Mark"
	buf[0] = byte(stage)
	sp.notes = append(sp.notes, buf...)
}

// snapshotInto is hot: copying into the caller's preallocated snapshot
// is the sanctioned shape.
func (sp *Span) snapshotInto(out *SpanSnapshot) {
	out.ID = sp.id
}

type Table struct {
	slots []Span
	slow  []SpanSnapshot
	next  int
}

// Acquire is hot: handing out a preallocated slot is fine; growing the
// table per request is not.
//
//pmlint:hot
func (t *Table) Acquire(id uint64) *Span {
	if t.next >= len(t.slots) {
		t.slots = append([]Span{}, t.slots...) // want "append onto a freshly allocated slice inside hot function Table.Acquire"
		return nil
	}
	sp := &t.slots[t.next]
	t.next++
	sp.Begin(id)
	return sp
}

// Finish is hot: the slow capture must reuse the preallocated ring.
//
//pmlint:hot
func (t *Table) Finish(sp *Span, slow bool) {
	if slow {
		sp.snapshotInto(&t.slow[0])
	}
	t.next--
}

// Slow is cold: the dump path may allocate freely.
func (t *Table) Slow() []SpanSnapshot {
	out := make([]SpanSnapshot, len(t.slow))
	copy(out, t.slow)
	return out
}
