package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrLineHelpers(t *testing.T) {
	cases := []struct {
		a          Addr
		line       Addr
		off        int
		wordIdx    int
		lineAlign  bool
		wordAlign  bool
		wordAligna Addr
	}{
		{0, 0, 0, 0, true, true, 0},
		{63, 0, 63, 7, false, false, 56},
		{64, 64, 0, 0, true, true, 64},
		{100, 64, 36, 4, false, false, 96},
		{0xfff8, 0xffc0, 56, 7, false, true, 0xfff8},
	}
	for _, c := range cases {
		if got := c.a.Line(); got != c.line {
			t.Errorf("Line(%v) = %v, want %v", c.a, got, c.line)
		}
		if got := c.a.LineOffset(); got != c.off {
			t.Errorf("LineOffset(%v) = %d, want %d", c.a, got, c.off)
		}
		if got := c.a.WordIndex(); got != c.wordIdx {
			t.Errorf("WordIndex(%v) = %d, want %d", c.a, got, c.wordIdx)
		}
		if got := c.a.IsLineAligned(); got != c.lineAlign {
			t.Errorf("IsLineAligned(%v) = %v, want %v", c.a, got, c.lineAlign)
		}
		if got := c.a.IsWordAligned(); got != c.wordAlign {
			t.Errorf("IsWordAligned(%v) = %v, want %v", c.a, got, c.wordAlign)
		}
		if got := c.a.WordAligned(); got != c.wordAligna {
			t.Errorf("WordAligned(%v) = %v, want %v", c.a, got, c.wordAligna)
		}
	}
}

func TestLineWordRoundTrip(t *testing.T) {
	var l Line
	for i := 0; i < WordsPerLine; i++ {
		l.SetWord(i, Word(0x0102030405060708*uint64(i+1)))
	}
	for i := 0; i < WordsPerLine; i++ {
		want := Word(0x0102030405060708 * uint64(i+1))
		if got := l.Word(i); got != want {
			t.Errorf("Word(%d) = %#x, want %#x", i, got, want)
		}
	}
}

func TestLineWordIsLittleEndian(t *testing.T) {
	var l Line
	l.SetWord(0, 0x1122334455667788)
	if l[0] != 0x88 || l[7] != 0x11 {
		t.Errorf("expected little-endian layout, got % x", l[:8])
	}
}

func TestPhysicalReadWrite(t *testing.T) {
	p := NewPhysical(0x1000, 4096)
	if p.Base() != 0x1000 || p.Size() != 4096 {
		t.Fatalf("geometry: base %v size %d", p.Base(), p.Size())
	}
	p.WriteWord(0x1008, 0xdeadbeefcafef00d)
	if got := p.ReadWord(0x1008); got != 0xdeadbeefcafef00d {
		t.Errorf("ReadWord = %#x", got)
	}
	// Unaligned word access is rounded down.
	if got := p.ReadWord(0x100b); got != 0xdeadbeefcafef00d {
		t.Errorf("unaligned ReadWord = %#x", got)
	}

	var ln Line
	ln.SetWord(3, 42)
	p.WriteLine(0x1100, &ln)
	var got Line
	p.ReadLine(0x1110, &got) // any address within the line works
	if got.Word(3) != 42 {
		t.Errorf("line word 3 = %d, want 42", got.Word(3))
	}

	p.Write(0x1200, []byte("hello"))
	if string(p.Read(0x1200, 5)) != "hello" {
		t.Errorf("byte round trip failed")
	}
}

func TestPhysicalContains(t *testing.T) {
	p := NewPhysical(0x1000, 256)
	if !p.Contains(0x1000, 256) {
		t.Error("Contains(full region) = false")
	}
	if p.Contains(0x0fff, 1) || p.Contains(0x10ff, 2) || p.Contains(0x1100, 1) ||
		p.Contains(1<<63, 0x2000) || p.Contains(0x1000, -1) {
		t.Error("Contains out-of-range accepted")
	}
}

func TestPhysicalBoundsPanic(t *testing.T) {
	p := NewPhysical(0, 128)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds access")
		}
	}()
	p.ReadWord(128)
}

func TestPhysicalAlignmentPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unaligned region")
		}
	}()
	NewPhysical(8, 128)
}

func TestSnapshotEqual(t *testing.T) {
	p := NewPhysical(0, 256)
	p.WriteWord(0, 7)
	s := p.Snapshot()
	if !p.Equal(s) {
		t.Fatal("snapshot differs from original")
	}
	p.WriteWord(8, 9)
	if p.Equal(s) {
		t.Fatal("snapshot tracked later writes")
	}
	if s.ReadWord(0) != 7 {
		t.Fatal("snapshot lost data")
	}
}

// Property: SetWord/Word round-trips for any word value and any slot.
func TestQuickLineWordRoundTrip(t *testing.T) {
	f := func(v uint64, slot uint8) bool {
		i := int(slot) % WordsPerLine
		var l Line
		l.SetWord(i, Word(v))
		return l.Word(i) == Word(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: word writes through Physical agree with line reads.
func TestQuickPhysicalWordLineAgree(t *testing.T) {
	p := NewPhysical(0, 1<<16)
	f := func(off uint16, v uint64) bool {
		a := Addr(off).WordAligned()
		p.WriteWord(a, Word(v))
		var l Line
		p.ReadLine(a, &l)
		return l.Word(a.WordIndex()) == Word(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
