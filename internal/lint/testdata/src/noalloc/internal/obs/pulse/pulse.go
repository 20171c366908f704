// Fixtures for the noallochotpath analyzer, pulse side: the windowed
// collector's tick and per-request exemplar offer run while traffic
// lands and must reuse the preallocated ring slots and scratch buffers
// — per-tick or per-request slices flag.
package pulse

type window struct {
	ops []uint64
}

type Collector struct {
	ring    []window
	pos     int
	scratch []uint64
}

// Tick is hot: the delta is written into the preallocated ring slot in
// place; materializing per-tick buffers flags.
//
//pmlint:hot
func (c *Collector) Tick() {
	w := &c.ring[c.pos%len(c.ring)]
	for i := range w.ops {
		w.ops[i] = 0
	}
	tmp := make([]uint64, 4) // want "make\\(\\) into a local inside hot function Collector.Tick"
	w.ops = append(w.ops[:0], tmp...)
	c.scratch = append([]uint64{}, w.ops...) // want "append onto a freshly allocated slice inside hot function Collector.Tick"
	c.pos++
}

// NoteFinished is hot: offering an exemplar reuses the scratch slot.
//
//pmlint:hot
func (c *Collector) NoteFinished(latNS int64) {
	c.scratch = c.scratch[:0]
	c.scratch = append(c.scratch, uint64(latNS))
}

// setup is cold: the ring and scratch are allocated once at creation,
// and growing a receiver field is the amortized sanctioned shape.
func (c *Collector) setup(windows int) {
	c.ring = make([]window, windows)
	for i := range c.ring {
		c.ring[i].ops = make([]uint64, 8)
	}
	c.scratch = make([]uint64, 0, 16)
}
