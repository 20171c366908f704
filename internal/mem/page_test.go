package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// present counts materialised pages.
func (p *Physical) present() int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestPageStraddle(t *testing.T) {
	const base = 0x40000
	p := NewPhysical(base, 3*pageSize)
	msg := bytes.Repeat([]byte("straddle"), 16) // 128 B
	at := Addr(base + pageSize - 40)            // 40 B in page 0, 88 B in page 1
	p.Write(at, msg)
	if p.present() != 2 {
		t.Fatalf("present pages = %d, want 2", p.present())
	}
	if got := p.Read(at, len(msg)); !bytes.Equal(got, msg) {
		t.Errorf("Read across the boundary = %q", got)
	}
	// A read spanning written page 1 and never-written page 2 must
	// overwrite stale bytes in dst with zeros.
	dst := bytes.Repeat([]byte{0xff}, 64)
	p.ReadInto(base+2*pageSize-32, dst)
	want := append(p.Read(base+2*pageSize-32, 32), make([]byte, 32)...)
	if !bytes.Equal(dst, want) {
		t.Errorf("ReadInto over present|absent = % x", dst)
	}
	// One write covering all three pages.
	big := bytes.Repeat([]byte{7}, 2*pageSize+64)
	p.Write(base+pageSize-64, big)
	if got := p.Read(base+pageSize-64, len(big)); !bytes.Equal(got, big) {
		t.Error("three-page write did not read back")
	}
}

func TestPartialLastPage(t *testing.T) {
	const size = pageSize + 3*LineSize
	p := NewPhysical(0x1000, size)
	last := Addr(0x1000 + size - LineSize)
	var ln Line
	ln.SetWord(7, 0xfeed)
	p.WriteLine(last, &ln)
	if p.ReadWord(last+56) != 0xfeed {
		t.Error("last line of a partial page lost its word")
	}
	if !p.Contains(last, LineSize) || p.Contains(last, LineSize+1) {
		t.Error("Contains disagrees with the region end")
	}
	mustPanic(t, "read one byte past the end", func() { p.Read(last, LineSize+1) })
	mustPanic(t, "word past the end", func() { p.ReadWord(last + LineSize) })
	mustPanic(t, "write past the end", func() { p.Write(last+60, make([]byte, 8)) })

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPhysical(&buf)
	if err != nil || !q.Equal(p) {
		t.Errorf("partial-page image round trip: err %v", err)
	}
}

func TestAbsentEqualsZeroPage(t *testing.T) {
	a := NewPhysical(0, 2*pageSize)
	b := NewPhysical(0, 2*pageSize)
	b.Write(pageSize, make([]byte, LineSize)) // materialised, all zero
	if a.present() != 0 || b.present() != 1 {
		t.Fatalf("present: a %d b %d", a.present(), b.present())
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("absent page != materialised zero page")
	}
	b.WriteWord(2*pageSize-8, 1)
	if a.Equal(b) || b.Equal(a) {
		t.Error("non-zero page equals an absent one")
	}
}

func TestSnapshotDoesNotAlias(t *testing.T) {
	p := NewPhysical(0, 2*pageSize)
	p.WriteWord(8, 1)
	s := p.Snapshot()
	s.WriteWord(8, 2)        // page both have
	s.WriteWord(pageSize, 3) // page only the copy has
	if p.ReadWord(8) != 1 || p.ReadWord(pageSize) != 0 || p.present() != 1 {
		t.Error("mutating a snapshot changed the original")
	}
	q := NewPhysical(0, 2*pageSize)
	q.WriteWord(pageSize+8, 9) // a page the source lacks must not survive CopyFrom
	if err := q.CopyFrom(p); err != nil {
		t.Fatal(err)
	}
	q.WriteWord(8, 4)
	if p.ReadWord(8) != 1 || q.ReadWord(pageSize+8) != 0 || !p.Equal(p.Snapshot()) {
		t.Error("CopyFrom aliases its source or kept stale pages")
	}
}

func TestReadsNeverMaterialise(t *testing.T) {
	p := NewPhysical(0, 4*pageSize)
	var ln Line
	p.ReadLine(pageSize, &ln)
	p.ReadWord(2 * pageSize)
	p.Read(pageSize-8, 16)
	p.ReadInto(0, make([]byte, 4*pageSize))
	p.Snapshot().Equal(p)
	p.WriteTo(&bytes.Buffer{})
	if p.present() != 0 {
		t.Errorf("reads materialised %d pages", p.present())
	}
	if ln != (Line{}) {
		t.Error("absent line is not zero")
	}
}

// fixedContent builds an image whose serialization is pinned below: words
// scattered over five 64 KiB pages of a region with a partial sixth, a
// write across a page boundary, a line written and then zeroed again (it
// must be skipped), the region's last line, and one page left untouched.
func fixedContent() *Physical {
	const base, size = 0x100000, 5*65536 + 4096
	p := NewPhysical(base, size)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		off := rng.Intn(size/8) * 8
		if off>>16 == 3 {
			continue
		}
		p.WriteWord(base+Addr(off), Word(rng.Uint64()))
	}
	p.Write(base+2*65536-24, []byte("forty-eight bytes across a 64 KiB page boundary."))
	p.WriteWord(base+0x480, 5)
	p.WriteWord(base+0x480, 0)
	var ln Line
	ln.SetWord(0, 0x0123456789abcdef)
	p.WriteLine(base+size-LineSize, &ln)
	return p
}

// TestWriteToGolden: the image file format did not change when Physical
// became paged. The digest was recorded at the commit before, where the
// region was one flat slice.
func TestWriteToGolden(t *testing.T) {
	const want = "813f8fa83423c698"
	p := fixedContent()
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo: n %d len %d err %v", n, buf.Len(), err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:])[:16]; got != want {
		t.Errorf("image digest %s (%d bytes), want %s", got, buf.Len(), want)
	}
	q, err := ReadPhysical(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Equal(p) || !p.Equal(q) {
		t.Error("ReadPhysical(WriteTo(p)) != p")
	}
}
