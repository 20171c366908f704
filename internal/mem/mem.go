// Package mem provides the basic memory primitives shared by every layer of
// the simulated persistent memory system: physical addresses, words, cache
// lines, and a byte-addressable physical memory.
//
// The paper models a 64-bit machine with 64 B cache lines and 8 B words;
// log records carry 48-bit physical addresses. Those constants live here so
// that the cache hierarchy, the memory controller, the NVRAM device model,
// and the hardware logging engine all agree on geometry.
package mem

import (
	"encoding/binary"
	"fmt"
)

const (
	// WordSize is the size of a machine word in bytes. Log records hold a
	// one-word undo value and a one-word redo value (paper Section III-A).
	WordSize = 8
	// LineSize is the cache line size in bytes (Table II: 64 B lines).
	LineSize = 64
	// WordsPerLine is the number of words in one cache line.
	WordsPerLine = LineSize / WordSize
	// AddrBits is the number of physical address bits carried in a log
	// record (paper Figure 3(a): 48-bit physical address field).
	AddrBits = 48
	// MaxAddr is the first address beyond the 48-bit physical space.
	MaxAddr = Addr(1) << AddrBits
)

// Addr is a physical byte address in the simulated machine.
type Addr uint64

// Line returns the address of the cache line containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// WordAligned returns the address rounded down to a word boundary.
func (a Addr) WordAligned() Addr { return a &^ (WordSize - 1) }

// LineOffset returns the byte offset of a within its cache line.
func (a Addr) LineOffset() int { return int(a & (LineSize - 1)) }

// WordIndex returns the index of the word containing a within its line.
func (a Addr) WordIndex() int { return int(a&(LineSize-1)) / WordSize }

// IsLineAligned reports whether a is aligned to a cache line boundary.
func (a Addr) IsLineAligned() bool { return a&(LineSize-1) == 0 }

// IsWordAligned reports whether a is aligned to a word boundary.
func (a Addr) IsWordAligned() bool { return a&(WordSize-1) == 0 }

func (a Addr) String() string { return fmt.Sprintf("0x%012x", uint64(a)) }

// Word is an 8-byte machine word, the granularity of undo/redo log values.
type Word uint64

// Line is the payload of one cache line.
type Line [LineSize]byte

// Word extracts the i-th word of the line (little-endian, as on x86).
func (l *Line) Word(i int) Word {
	return Word(binary.LittleEndian.Uint64(l[i*WordSize:]))
}

// SetWord stores w into the i-th word of the line.
func (l *Line) SetWord(i int, w Word) {
	binary.LittleEndian.PutUint64(l[i*WordSize:], uint64(w))
}

// pageSize is the unit in which a Physical materialises storage. Pages
// start at multiples of pageSize from the region's base, so an aligned
// line or word never straddles two of them.
const (
	pageShift = 16
	pageSize  = 1 << pageShift // 64 KiB
)

type page [pageSize]byte

// Physical is a byte-addressable physical memory image. It is the ground
// truth that survives simulated crashes: caches hold copies of its lines,
// and recovery rewrites it through the log. Accesses are bounds checked so
// that a buggy workload or allocator fails loudly.
//
// Storage is a table of pages allocated on first write; an absent page
// reads as zeros. A machine models a DIMM far larger than what a run
// touches, and building, saving, copying or comparing one costs only the
// touched part.
type Physical struct {
	pages []*page // nil = never written
	base  Addr
	size  uint64
}

// NewPhysical creates a physical memory of the given size starting at base.
// base and size must be line aligned.
func NewPhysical(base Addr, size uint64) *Physical {
	if !base.IsLineAligned() || size%LineSize != 0 {
		panic(fmt.Sprintf("mem: physical region %v+%d not line aligned", base, size))
	}
	if uint64(base)+size > uint64(MaxAddr) {
		panic(fmt.Sprintf("mem: physical region %v+%d exceeds %d-bit space", base, size, AddrBits))
	}
	return &Physical{pages: make([]*page, (size+pageSize-1)>>pageShift), base: base, size: size}
}

// Base returns the first address of the region.
func (p *Physical) Base() Addr { return p.base }

// Size returns the size of the region in bytes.
func (p *Physical) Size() uint64 { return p.size }

// Contains reports whether [a, a+n) lies inside the region.
// Overflow-safe for any a and n: addresses come from untrusted images.
func (p *Physical) Contains(a Addr, n int) bool {
	off := uint64(a - p.base)
	return a >= p.base && n >= 0 && off <= p.size && uint64(n) <= p.size-off
}

func (p *Physical) offset(a Addr, n int) uint64 {
	if !p.Contains(a, n) {
		panic(fmt.Sprintf("mem: access %v+%d outside region [%v, %v)", a, n, p.base, p.base+Addr(p.size)))
	}
	return uint64(a - p.base)
}

// load returns the bytes from region offset off to the end of its page,
// nil when that page was never written (it reads as zeros).
func (p *Physical) load(off uint64) []byte {
	if pg := p.pages[off>>pageShift]; pg != nil {
		return pg[off&(pageSize-1):]
	}
	return nil
}

// store is load for writing: it materialises the page.
func (p *Physical) store(off uint64) []byte {
	pg := &p.pages[off>>pageShift]
	if *pg == nil {
		*pg = new(page)
	}
	return (*pg)[off&(pageSize-1):]
}

// ReadLine copies the cache line containing a into dst.
func (p *Physical) ReadLine(a Addr, dst *Line) {
	p.ReadInto(a.Line(), dst[:])
}

// WriteLine stores src into the cache line containing a.
func (p *Physical) WriteLine(a Addr, src *Line) {
	copy(p.store(p.offset(a.Line(), LineSize)), src[:])
}

// ReadWord loads the word at the word-aligned address a.
func (p *Physical) ReadWord(a Addr) Word {
	if src := p.load(p.offset(a.WordAligned(), WordSize)); src != nil {
		return Word(binary.LittleEndian.Uint64(src))
	}
	return 0
}

// WriteWord stores w at the word-aligned address a.
func (p *Physical) WriteWord(a Addr, w Word) {
	binary.LittleEndian.PutUint64(p.store(p.offset(a.WordAligned(), WordSize)), uint64(w))
}

// Read copies n bytes starting at a into a fresh slice.
func (p *Physical) Read(a Addr, n int) []byte {
	out := make([]byte, n)
	p.ReadInto(a, out)
	return out
}

// ReadInto copies len(dst) bytes starting at a into dst — the
// allocation-free variant of Read for hot paths that own a scratch buffer.
func (p *Physical) ReadInto(a Addr, dst []byte) {
	off := p.offset(a, len(dst))
	for len(dst) > 0 {
		n := min(len(dst), pageSize-int(off&(pageSize-1)))
		if src := p.load(off); src != nil {
			copy(dst[:n], src)
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+uint64(n)
	}
}

// Write stores src starting at address a.
func (p *Physical) Write(a Addr, src []byte) {
	off := p.offset(a, len(src))
	for len(src) > 0 {
		n := copy(p.store(off), src)
		src, off = src[n:], off+uint64(n)
	}
}

// Snapshot returns a deep copy of the region, used by the recovery checker
// to compare post-crash NVRAM images against an oracle.
func (p *Physical) Snapshot() *Physical {
	cp := NewPhysical(p.base, p.size)
	for i, pg := range p.pages {
		if pg != nil {
			dup := *pg
			cp.pages[i] = &dup
		}
	}
	return cp
}

// Equal reports whether two regions have identical base, size and contents
// (a page never written equals a page of zeros).
func (p *Physical) Equal(o *Physical) bool {
	if p.base != o.base || p.size != o.size {
		return false
	}
	for i, a := range p.pages {
		b := o.pages[i]
		if a == nil {
			a, b = b, a
		}
		switch {
		case a == nil: // neither was written
		case b == nil:
			for _, v := range a {
				if v != 0 {
					return false
				}
			}
		case *a != *b:
			return false
		}
	}
	return true
}
