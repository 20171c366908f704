// Fixtures for the noallochotpath analyzer, nvlog side: the append and
// truncate hot paths must build their write lists from receiver-owned
// scratch, never from fresh slices.
package nvlog

type Write struct {
	Addr  uint64
	Bytes []byte
}

type Log struct {
	tail          uint64
	scratchWrites []Write
	scratchSlot   [64]byte
}

func (l *Log) metaWrite() Write { return Write{Addr: 0, Bytes: l.scratchSlot[:32]} }

// PrepareAppend is a hot function: scratch reuse passes, fresh slices flag.
//
//pmlint:hot
func (l *Log) PrepareAppend(payload []byte) ([]Write, error) {
	writes := l.scratchWrites[:0]                // reslice of a field: reuses capacity
	writes = append(writes, Write{Addr: l.tail}) // append onto the local: fine
	writes = append(writes, l.metaWrite())       // ditto
	bad := make([]byte, len(payload))            // want "make\\(\\) into a local inside hot function Log.PrepareAppend"
	copy(bad, payload)
	writes = append([]Write(nil), writes...) // want "append onto a freshly allocated slice inside hot function Log.PrepareAppend"
	l.tail++
	return writes, nil
}

// Truncate is hot too; a waived allocation stays quiet.
//
//pmlint:hot
func (l *Log) Truncate(n uint64) []Write {
	//pmlint:allow noallochotpath
	tmp := make([]Write, 0, n)
	return append(tmp, l.metaWrite())
}

// Grow is cold: allocation is the point of the call, nothing flags.
func (l *Log) Grow(n int) []Write {
	out := make([]Write, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Write{Bytes: append([]byte(nil), l.scratchSlot[:]...)})
	}
	return out
}
