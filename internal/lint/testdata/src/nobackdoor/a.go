// Fixtures for the nobackdoor analyzer: raw persistent-state mutation in
// an ordinary (non-memctl, non-recovery) package, and the sanctioned
// SetupCtx / transaction routes that must pass.
package nobackdoor

import (
	"pmemlog/internal/mem"
	"pmemlog/internal/pheap"
	"pmemlog/internal/sim"
)

func populateSanctioned(s *sim.System, base mem.Addr) {
	setup := s.SetupCtx()
	setup.Store(base, 1)
	setup.StoreBytes(base, []byte{1, 2})
}

func mutateImage(img *mem.Physical, a mem.Addr) {
	img.WriteWord(a, 7)           // want "\\(Physical\\).WriteWord mutates persistent state"
	img.Write(a, []byte{1})       // want "\\(Physical\\).Write mutates persistent state"
	img.WriteLine(a, &mem.Line{}) // want "\\(Physical\\).WriteLine mutates persistent state"
	img.CopyFrom(&mem.Physical{}) // want "\\(Physical\\).CopyFrom mutates persistent state"
}

func readImage(img *mem.Physical, a mem.Addr) mem.Word {
	return img.ReadWord(a) // reads are not a backdoor
}

func rewindHeap(h *pheap.Heap) error {
	return h.SetUsed(0) // want "\\(Heap\\).SetUsed mutates persistent state"
}

func transactional(ctx sim.Ctx, a mem.Addr) {
	ctx.TxBegin()
	ctx.Store(a, 1)
	ctx.TxCommit()
}
