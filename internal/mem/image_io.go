package mem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Physical image serialization: a compact sparse format (only non-zero
// lines are stored) so a simulated NVRAM DIMM can be written to a file and
// re-attached by a later process — letting crash/recovery demos span real
// process lifetimes, like a real persistent-memory device surviving a
// reboot.
//
// Format: magic, base, size, then (lineIndex uint64, 64 raw bytes) pairs,
// terminated by ^uint64(0).
const imageMagic = 0x53464E56 // "SFNV"

// maxImageBytes is the largest region ReadPhysical accepts: the paper's
// 8 GB DIMM (Table II), a page table of 1 MiB.
const maxImageBytes = 8 << 30

// WriteTo serializes the region sparsely.
func (p *Physical) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		m, err := bw.Write(buf[:])
		n += int64(m)
		return err
	}
	if err := put(imageMagic); err != nil {
		return n, err
	}
	if err := put(uint64(p.base)); err != nil {
		return n, err
	}
	if err := put(p.Size()); err != nil {
		return n, err
	}
	var zero Line
	for i, pg := range p.pages {
		if pg == nil {
			continue
		}
		start := uint64(i) << pageShift
		end := min(pageSize, p.size-start) // the last page may be partial
		for off := uint64(0); off < end; off += LineSize {
			line := pg[off : off+LineSize]
			if string(line) == string(zero[:]) {
				continue
			}
			if err := put((start + off) / LineSize); err != nil {
				return n, err
			}
			m, err := bw.Write(line)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	if err := put(^uint64(0)); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadPhysical deserializes an image written by WriteTo.
func ReadPhysical(r io.Reader) (*Physical, error) {
	br := bufio.NewReader(r)
	get := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	magic, err := get()
	if err != nil {
		return nil, fmt.Errorf("mem: image header: %w", err)
	}
	if magic != imageMagic {
		return nil, fmt.Errorf("mem: bad image magic %#x", magic)
	}
	base, err := get()
	if err != nil {
		return nil, fmt.Errorf("mem: image header: %w", err)
	}
	size, err := get()
	if err != nil {
		return nil, fmt.Errorf("mem: image header: %w", err)
	}
	// The header is outside input: reject what NewPhysical would panic on,
	// and bound size before anything is allocated in proportion to it.
	if base%LineSize != 0 || size%LineSize != 0 || size > maxImageBytes || base > uint64(MaxAddr)-size {
		return nil, fmt.Errorf("mem: bad image geometry %#x+%#x", base, size)
	}
	p := NewPhysical(Addr(base), size)
	var line Line
	for {
		idx, err := get()
		if err != nil {
			return nil, fmt.Errorf("mem: image truncated: %w", err)
		}
		if idx == ^uint64(0) {
			return p, nil
		}
		if idx >= size/LineSize {
			return nil, fmt.Errorf("mem: image line %d outside region", idx)
		}
		if _, err := io.ReadFull(br, line[:]); err != nil {
			return nil, fmt.Errorf("mem: image line %d: %w", idx, err)
		}
		p.WriteLine(p.base+Addr(idx*LineSize), &line)
	}
}

// WriteFile persists the image to path atomically: the bytes go to a
// temporary file in the same directory, are synced, and the file is
// renamed over path — so a process killed mid-save leaves either the old
// image or the new one, never a torn file. This is the durability point
// services built on the simulated DIMM ack writes against.
func (p *Physical) WriteFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".img-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := p.WriteTo(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadPhysicalFile loads an image persisted by WriteFile (or WriteTo).
func ReadPhysicalFile(path string) (*Physical, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPhysical(f)
}

// CopyFrom overwrites this region's contents with another image of the
// same geometry (re-attaching a persisted DIMM image to a fresh machine).
func (p *Physical) CopyFrom(o *Physical) error {
	if p.base != o.base || p.size != o.size {
		return fmt.Errorf("mem: image geometry mismatch: %v+%d vs %v+%d",
			p.base, p.size, o.base, o.size)
	}
	copy(p.pages, o.Snapshot().pages)
	return nil
}
