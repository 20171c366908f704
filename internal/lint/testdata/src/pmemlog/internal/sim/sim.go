// Package sim stubs the simulated machine for pmlint fixtures.
package sim

import (
	"io"

	"pmemlog/internal/chaos"
	"pmemlog/internal/mem"
	"pmemlog/internal/pheap"
)

// Config describes one machine to assemble.
type Config struct {
	NVRAMBytes uint64
	Chaos      *chaos.Injector
}

// New assembles a machine.
func New(cfg Config) (*System, error) { return &System{}, nil }

// System is one assembled machine instance.
type System struct{}

func (s *System) Peek(a mem.Addr) mem.Word            { return 0 }
func (s *System) Quiesce()                            {}
func (s *System) SaveNVRAM(w io.Writer) error         { return nil }
func (s *System) NVRAMImage() *mem.Physical           { return &mem.Physical{} }
func (s *System) Heap() *pheap.Heap                   { return &pheap.Heap{} }
func (s *System) SetupCtx() Ctx                       { return nil }
func (s *System) RunN(fn func(ctx Ctx, id int)) error { return nil }

// Ctx is the workload-facing load/store/transaction surface.
type Ctx interface {
	TxBegin()
	TxCommit()
	Load(addr mem.Addr) mem.Word
	Store(addr mem.Addr, w mem.Word)
	StoreBytes(addr mem.Addr, b []byte)
}
