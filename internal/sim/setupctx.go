package sim

import (
	"encoding/binary"
	"fmt"

	"pmemlog/internal/mem"
)

// setupCtx is an untimed Ctx over the NVRAM image, used to populate data
// structures before measurement (the equivalent of running a traced
// process up to the region of interest) and to write a service's
// image-save-point words. Its stores are the memory controller's untimed
// writes, which no crash reverts, and the oracle records them as
// population state; transactions are no-ops.
type setupCtx struct{ s *System }

// SetupCtx returns an untimed context for pre-measurement population and
// image-save-point words. It must not be used concurrently with RunN.
func (s *System) SetupCtx() Ctx { return setupCtx{s: s} }

func (c setupCtx) TxBegin()       {}
func (c setupCtx) TxCommit()      {}
func (c setupCtx) Compute(uint64) {}
func (c setupCtx) ThreadID() int  { return 0 }

func (c setupCtx) Load(addr mem.Addr) mem.Word {
	if !addr.IsWordAligned() {
		panic(fmt.Sprintf("sim: unaligned setup load at %v", addr))
	}
	return c.s.nv.Image().ReadWord(addr)
}

func (c setupCtx) Store(addr mem.Addr, w mem.Word) {
	if !addr.IsWordAligned() {
		panic(fmt.Sprintf("sim: unaligned setup store at %v", addr))
	}
	var b [mem.WordSize]byte
	binary.LittleEndian.PutUint64(b[:], uint64(w))
	c.StoreBytes(addr, b[:])
}

func (c setupCtx) LoadBytes(addr mem.Addr, n int) []byte {
	return c.s.nv.Image().Read(addr, n)
}

func (c setupCtx) LoadBytesInto(dst []byte, addr mem.Addr, n int) []byte {
	grown := append(dst, make([]byte, n)...)
	c.s.nv.Image().ReadInto(addr, grown[len(dst):])
	return grown
}

func (c setupCtx) StoreBytes(addr mem.Addr, b []byte) {
	c.s.ctl.WriteUntimed(addr, b)
	if c.s.oracle == nil {
		return
	}
	for i := 0; i+mem.WordSize <= len(b); i += mem.WordSize {
		a := (addr + mem.Addr(i)).WordAligned()
		w := c.s.nv.Image().ReadWord(a)
		c.s.oracle.commitWord(a, w)
		c.s.population[a] = w
	}
}
