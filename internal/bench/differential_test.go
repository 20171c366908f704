package bench

import (
	"testing"

	"pmemlog/internal/sim"
	"pmemlog/internal/txn"
)

// TestModesAreFunctionallyEquivalent is the cross-design differential
// check: the eight designs differ ONLY in how they make updates durable,
// so running the same seeded workload under each must leave byte-identical
// visible state in every data structure. A divergence would mean a logging
// path corrupted data (e.g. an undo capture racing the store).
func TestModesAreFunctionallyEquivalent(t *testing.T) {
	type snapshot map[uint64]bool

	finalState := func(mode txn.Mode) snapshot {
		s := testSystem(t, mode, 2)
		cfg := testCfg(2)
		cfg.TxnsPerThread = 120
		h := NewHash(cfg)
		if err := h.Setup(s); err != nil {
			t.Fatal(err)
		}
		if err := s.RunN(h.Run); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		snap := snapshot{}
		err := s.RunN(func(ctx sim.Ctx, id int) {
			if id != 0 {
				return
			}
			for k := uint64(0); k < uint64(cfg.Elements); k++ {
				snap[k] = h.Contains(ctx, k)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	ref := finalState(txn.NonPers)
	for _, mode := range txn.AllModes()[1:] {
		got := finalState(mode)
		for k, want := range ref {
			if got[k] != want {
				t.Fatalf("%s diverges from non-pers at key %d (%v vs %v)",
					mode, k, got[k], want)
			}
		}
	}
}

// Same property for the rbtree, whose rebalancing makes the read-write
// interleavings (and hence the logging paths exercised) far richer.
func TestRBTreeModesEquivalent(t *testing.T) {
	finalCount := func(mode txn.Mode) (int, []bool) {
		s := testSystem(t, mode, 1)
		cfg := testCfg(1)
		cfg.TxnsPerThread = 150
		r := NewRBTree(cfg)
		if err := r.Setup(s); err != nil {
			t.Fatal(err)
		}
		if err := s.RunN(r.Run); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var count int
		member := make([]bool, cfg.Elements)
		err := s.RunN(func(ctx sim.Ctx, id int) {
			var err error
			count, err = r.CheckInvariants(ctx, 0)
			if err != nil {
				panic(err.Error())
			}
			for k := range member {
				member[k] = r.Contains(ctx, 0, uint64(k))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return count, member
	}

	refCount, refMember := finalCount(txn.NonPers)
	for _, mode := range []txn.Mode{txn.SWUndoClwb, txn.SWRedoClwb, txn.HWL, txn.FWB} {
		count, member := finalCount(mode)
		if count != refCount {
			t.Fatalf("%s: node count %d, non-pers %d", mode, count, refCount)
		}
		for k := range refMember {
			if member[k] != refMember[k] {
				t.Fatalf("%s diverges at key %d", mode, k)
			}
		}
	}
}
