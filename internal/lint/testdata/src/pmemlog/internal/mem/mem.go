// Package mem stubs the real pmemlog/internal/mem surface for the pmlint
// fixture harness. The analyzers match calls by (package path, receiver
// type, method name), so only the shapes matter, not the behavior.
package mem

import "io"

// Addr is a simulated physical address.
type Addr uint64

// Word is the machine word.
type Word uint64

// Line is one cache line's bytes.
type Line [64]byte

// Physical is the byte-addressable NVRAM image.
type Physical struct{}

func (p *Physical) ReadWord(a Addr) Word               { return 0 }
func (p *Physical) WriteWord(a Addr, w Word)           {}
func (p *Physical) Write(a Addr, b []byte)             {}
func (p *Physical) WriteLine(a Addr, l *Line)          {}
func (p *Physical) CopyFrom(o *Physical) error         { return nil }
func (p *Physical) WriteFile(path string) error        { return nil }
func (p *Physical) WriteTo(w io.Writer) (int64, error) { return 0, nil }
