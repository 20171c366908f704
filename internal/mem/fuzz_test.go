package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// image hand-assembles an image file: header, (line index, 64 bytes)
// pairs, terminator; cut bytes are dropped from the end.
func image(base, size uint64, cut int, lines ...uint64) []byte {
	var b []byte
	for _, v := range []uint64{imageMagic, base, size} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, idx := range lines {
		b = binary.LittleEndian.AppendUint64(b, idx)
		b = append(b, bytes.Repeat([]byte{byte(idx) | 1}, LineSize)...)
	}
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
	return b[:len(b)-cut]
}

// hostileImages are files ReadPhysical must answer with an error. The
// first two used to take the process down: NewPhysical panicked on the
// unaligned size, and a 128 TiB make is a fatal out-of-memory.
var hostileImages = map[string][]byte{
	"size not line aligned":     image(0, 65, 8),
	"base and size 1<<47":       image(1<<47, 1<<47, 8),
	"base not line aligned":     image(8, 4096, 0),
	"size over the cap":         image(0, MaxImageBytes+LineSize, 0),
	"region past the 48-bit":    image(uint64(MaxAddr)-64, 128, 0),
	"base+size wraps":           image(^uint64(0)&^63, 128, 0),
	"line index outside region": image(0x1000, 4096, 0, 3, 64),
	"line index*64 wraps":       image(0x1000, 4096, 0, 1<<58),
	"truncated body":            image(0x1000, 4096, 30, 1, 2),
	"missing terminator":        image(0x1000, 4096, 8, 1),
	"header only":               image(0x1000, 4096, 8),
}

func TestReadPhysicalRejectsHostileImages(t *testing.T) {
	for name, data := range hostileImages {
		if p, err := ReadPhysical(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted (%v+%d)", name, p.Base(), p.Size())
		}
	}
}

// FuzzReadPhysical: an image file is outside input (pmserver -dir, pmctl
// -load-image, flight-dump image paths). Whatever the bytes, ReadPhysical
// must not panic or allocate in proportion to a header field; what it
// accepts stays inside the declared region and survives a round trip.
func FuzzReadPhysical(f *testing.F) {
	var valid bytes.Buffer
	if _, err := fixedContent().WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(image(1<<32, MaxImageBytes, 0, 0, MaxImageBytes/LineSize-1)) // largest accepted region
	for _, data := range hostileImages {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPhysical(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.Size() > MaxImageBytes || uint64(len(p.pages)) != (p.Size()+pageSize-1)>>pageShift {
			t.Fatalf("accepted %v+%d with %d pages", p.Base(), p.Size(), len(p.pages))
		}
		if tail := p.Size() & (pageSize - 1); tail != 0 {
			if last := p.pages[len(p.pages)-1]; last != nil && !bytes.Equal(last[tail:], make([]byte, pageSize-tail)) {
				t.Fatal("bytes written past the end of the region")
			}
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		q, err := ReadPhysical(bytes.NewReader(out.Bytes()))
		if err != nil || !q.Equal(p) {
			t.Fatalf("round trip of an accepted image: err %v", err)
		}
	})
}
