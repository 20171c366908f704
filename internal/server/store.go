package server

import (
	"bytes"
	"fmt"

	"pmemlog/internal/mem"
	"pmemlog/internal/sim"
)

// store is one shard's persistent KV structure: an open-chain hash table
// living entirely in the shard machine's NVRAM heap. Every mutation runs
// inside one persistent-memory transaction, so any crash leaves the table
// in a committed-prefix state that recovery re-surfaces.
//
// Persistent layout (all words little-endian, addresses word aligned):
//
//	root block (1 line, first heap allocation):
//	  +0  magic        +8  version      +16 buckets      +24 usedBytes
//	bucket array (buckets words): head node address per chain, 0 = empty
//	nodes:
//	  +0  next node address (0 = end of chain)
//	  +8  key length in bytes
//	  +16 value length in bytes
//	  +24 value capacity in bytes (word-rounded allocation size)
//	  +32 key bytes (padded to a word boundary), then value bytes (cap)
//
// The root's usedBytes field is the heap bump pointer, poked in just
// before every image save (the save point is quiescent: no transaction is
// in flight), so a restarting process can re-attach the volatile allocator
// without overwriting surviving nodes.
const (
	storeMagic   = 0x31767273_6d70 // "pmsrv1" little-endian
	storeVersion = 1

	rootOffMagic   = 0
	rootOffVersion = 8
	rootOffBuckets = 16
	rootOffUsed    = 24

	nodeOffNext   = 0
	nodeOffKeyLen = 8
	nodeOffValLen = 16
	nodeOffValCap = 24
	nodeOffKey    = 32
)

type store struct {
	sys      *sim.System
	root     mem.Addr
	buckets  mem.Addr
	nBuckets uint64
	keys     uint64 // volatile live-key count (rebuilt on attach)

	// keyScratch backs chain-walk key comparisons so the steady-state
	// lookup path performs no heap allocation. A store is owned by exactly
	// one shard goroutine, so a single scratch buffer suffices.
	keyScratch []byte
}

func roundWord(n uint64) uint64 { return (n + mem.WordSize - 1) &^ (mem.WordSize - 1) }

// nodeBytes is the allocation size for a node with the given key length
// and value capacity.
func nodeBytes(keyLen, valCap uint64) uint64 {
	return nodeOffKey + roundWord(keyLen) + roundWord(valCap)
}

// allocStore lays out root + bucket array on a fresh heap.
func allocStore(sys *sim.System, nBuckets uint64) (*store, error) {
	if nBuckets == 0 {
		return nil, fmt.Errorf("server: store needs at least one bucket")
	}
	root, err := sys.Heap().AllocLine(mem.LineSize)
	if err != nil {
		return nil, err
	}
	buckets, err := sys.Heap().AllocLine(nBuckets * mem.WordSize)
	if err != nil {
		return nil, err
	}
	return &store{sys: sys, root: root, buckets: buckets, nBuckets: nBuckets}, nil
}

// createStore initializes a fresh shard image: root metadata is written
// directly (setup, untimed — like log_create's initial metadata).
func createStore(sys *sim.System, nBuckets uint64) (*store, error) {
	st, err := allocStore(sys, nBuckets)
	if err != nil {
		return nil, err
	}
	setup := sys.SetupCtx()
	setup.Store(st.root+rootOffMagic, storeMagic)
	setup.Store(st.root+rootOffVersion, storeVersion)
	setup.Store(st.root+rootOffBuckets, mem.Word(nBuckets))
	setup.Store(st.root+rootOffUsed, mem.Word(sys.Heap().Used()))
	return st, nil
}

// attachStore re-attaches the store in a recovered image: the root block
// is validated, the volatile allocator is advanced past the persisted
// high-water mark, and the chains are walked to rebuild the key count (and
// to sanity-check that every reachable node lies inside the heap).
func attachStore(sys *sim.System, nBuckets uint64) (*store, error) {
	st, err := allocStore(sys, nBuckets)
	if err != nil {
		return nil, err
	}
	if got := uint64(sys.Peek(st.root + rootOffMagic)); got != storeMagic {
		return nil, fmt.Errorf("server: image root magic %#x, want %#x (not a pmserver shard image?)", got, storeMagic)
	}
	if got := uint64(sys.Peek(st.root + rootOffVersion)); got != storeVersion {
		return nil, fmt.Errorf("server: image layout version %d, want %d", got, storeVersion)
	}
	if got := uint64(sys.Peek(st.root + rootOffBuckets)); got != nBuckets {
		return nil, fmt.Errorf("server: image has %d buckets, server configured for %d", got, nBuckets)
	}
	used := uint64(sys.Peek(st.root + rootOffUsed))
	//pmlint:allow nobackdoor -- re-attach derives allocator occupancy from the recovered image's persisted mark
	if err := sys.Heap().SetUsed(used); err != nil {
		return nil, fmt.Errorf("server: persisted heap high-water mark: %w", err)
	}
	heap := sys.Heap()
	for b := uint64(0); b < nBuckets; b++ {
		node := mem.Addr(sys.Peek(st.buckets + mem.Addr(b*mem.WordSize)))
		for hops := 0; node != 0; hops++ {
			if hops > 1<<20 {
				return nil, fmt.Errorf("server: bucket %d chain does not terminate (corrupt image)", b)
			}
			if !heap.Contains(node, nodeOffKey) {
				return nil, fmt.Errorf("server: bucket %d links node %v outside the heap", b, node)
			}
			st.keys++
			node = mem.Addr(sys.Peek(node + nodeOffNext))
		}
	}
	return st, nil
}

// persistHighWater writes the allocator's bump pointer into the root block
// through the untimed setup context. Called only at image-save points,
// where no transaction is in flight, so every byte below the mark belongs
// to committed (or freed) nodes.
func (st *store) persistHighWater() {
	st.sys.SetupCtx().Store(st.root+rootOffUsed, mem.Word(st.sys.Heap().Used()))
}

// bucketSlot returns the address of the chain-head word for key.
func (st *store) bucketSlot(key []byte) mem.Addr {
	idx := (hash64(key) >> 16) % st.nBuckets
	return st.buckets + mem.Addr(idx*mem.WordSize)
}

// find walks key's chain. It returns the matching node (0 if absent) and
// the address of the word that links to it (the bucket slot or the
// predecessor's next field) for unlinking/replacing.
func (st *store) find(ctx sim.Ctx, key []byte) (node, linkSlot mem.Addr) {
	linkSlot = st.bucketSlot(key)
	node = mem.Addr(ctx.Load(linkSlot))
	for node != 0 {
		keyLen := uint64(ctx.Load(node + nodeOffKeyLen))
		if keyLen == uint64(len(key)) {
			st.keyScratch = ctx.LoadBytesInto(st.keyScratch[:0], node+nodeOffKey, len(key))
			if bytes.Equal(st.keyScratch, key) {
				return node, linkSlot
			}
		}
		linkSlot = node + nodeOffNext
		node = mem.Addr(ctx.Load(linkSlot))
	}
	return 0, linkSlot
}

// get appends the value stored under key to dst and returns the extended
// slice. Passing a reused dst with spare capacity makes the steady-state
// GET path allocation free; passing nil behaves like the old allocating
// variant.
func (st *store) get(ctx sim.Ctx, key, dst []byte) ([]byte, bool) {
	node, _ := st.find(ctx, key)
	if node == 0 {
		return dst, false
	}
	valLen := int(ctx.Load(node + nodeOffValLen))
	keyLen := uint64(ctx.Load(node + nodeOffKeyLen))
	if valLen == 0 {
		if dst == nil {
			dst = []byte{}
		}
		return dst, true
	}
	return ctx.LoadBytesInto(dst, node+nodeOffKey+mem.Addr(roundWord(keyLen)), valLen), true
}

// writeNode fills a freshly allocated node (inside the caller's open
// transaction) and returns it linked to next.
func (st *store) writeNode(ctx sim.Ctx, node mem.Addr, key, val []byte, valCap uint64, next mem.Addr) {
	ctx.Store(node+nodeOffNext, mem.Word(next))
	ctx.Store(node+nodeOffKeyLen, mem.Word(len(key)))
	ctx.Store(node+nodeOffValLen, mem.Word(len(val)))
	ctx.Store(node+nodeOffValCap, mem.Word(valCap))
	ctx.StoreBytes(node+nodeOffKey, key)
	if len(val) > 0 {
		ctx.StoreBytes(node+nodeOffKey+mem.Addr(roundWord(uint64(len(key)))), val)
	}
}

// applyPut inserts or updates key → val. Must be called inside an open
// transaction; the caller has preflighted heap headroom (see putHeadroom),
// so allocation cannot fail mid-transaction.
func (st *store) applyPut(ctx sim.Ctx, key, val []byte) error {
	node, linkSlot := st.find(ctx, key)
	if node != 0 {
		valCap := uint64(ctx.Load(node + nodeOffValCap))
		keyLen := uint64(ctx.Load(node + nodeOffKeyLen))
		if roundWord(uint64(len(val))) <= valCap {
			// In-place update: the common fixed-size-value fast path.
			ctx.Store(node+nodeOffValLen, mem.Word(len(val)))
			if len(val) > 0 {
				ctx.StoreBytes(node+nodeOffKey+mem.Addr(roundWord(keyLen)), val)
			}
			return nil
		}
		// Grown value: allocate a roomier node, splice it into the old
		// node's chain position, recycle the old node's space. The free is
		// volatile metadata only — if the process dies before this
		// transaction's state is saved, the restart re-derives occupancy
		// from the persisted high-water mark and nothing is lost.
		valCapNew := roundWord(uint64(len(val)))
		repl, err := st.sys.Heap().Alloc(nodeBytes(uint64(len(key)), valCapNew))
		if err != nil {
			return fmt.Errorf("server: shard heap full: %w", err)
		}
		next := mem.Addr(ctx.Load(node + nodeOffNext))
		st.writeNode(ctx, repl, key, val, valCapNew, next)
		ctx.Store(linkSlot, mem.Word(repl))
		st.sys.Heap().Free(node, nodeBytes(keyLen, valCap))
		return nil
	}
	valCap := roundWord(uint64(len(val)))
	fresh, err := st.sys.Heap().Alloc(nodeBytes(uint64(len(key)), valCap))
	if err != nil {
		return fmt.Errorf("server: shard heap full: %w", err)
	}
	slot := st.bucketSlot(key)
	head := mem.Addr(ctx.Load(slot))
	st.writeNode(ctx, fresh, key, val, valCap, head)
	ctx.Store(slot, mem.Word(fresh))
	st.keys++
	return nil
}

// applyDel unlinks key's node. Must be called inside an open transaction.
func (st *store) applyDel(ctx sim.Ctx, key []byte) bool {
	node, linkSlot := st.find(ctx, key)
	if node == 0 {
		return false
	}
	next := mem.Addr(ctx.Load(node + nodeOffNext))
	ctx.Store(linkSlot, mem.Word(next))
	keyLen := uint64(ctx.Load(node + nodeOffKeyLen))
	valCap := uint64(ctx.Load(node + nodeOffValCap))
	st.sys.Heap().Free(node, nodeBytes(keyLen, valCap))
	st.keys--
	return true
}

// putHeadroom is the worst-case heap demand of a PUT (a fresh node).
func putHeadroom(key, val []byte) uint64 {
	return nodeBytes(uint64(len(key)), roundWord(uint64(len(val))))
}

// heapRemaining is the bump-allocator headroom (free-list space is extra,
// so this is conservative).
func (st *store) heapRemaining() uint64 {
	return st.sys.Heap().Size() - st.sys.Heap().Used()
}

// put runs one PUT as a single persistent transaction.
func (st *store) put(ctx sim.Ctx, key, val []byte) error {
	if putHeadroom(key, val) > st.heapRemaining() {
		return fmt.Errorf("server: shard heap full (%d of %d bytes used)",
			st.sys.Heap().Used(), st.sys.Heap().Size())
	}
	ctx.TxBegin()
	err := st.applyPut(ctx, key, val)
	ctx.TxCommit()
	return err
}

// del runs one DEL as a single persistent transaction.
func (st *store) del(ctx sim.Ctx, key []byte) bool {
	ctx.TxBegin()
	ok := st.applyDel(ctx, key)
	ctx.TxCommit()
	return ok
}

// txn applies a PUT/DEL batch atomically in one persistent transaction:
// either every sub-op's effect survives a crash or none does.
func (st *store) txn(ctx sim.Ctx, ops []Op) error {
	var need uint64
	for _, op := range ops {
		if op.Code == OpPut {
			need += putHeadroom(op.Key, op.Val)
		}
	}
	if need > st.heapRemaining() {
		return fmt.Errorf("server: shard heap full (%d of %d bytes used)",
			st.sys.Heap().Used(), st.sys.Heap().Size())
	}
	ctx.TxBegin()
	var err error
	for _, op := range ops {
		if op.Code == OpPut {
			err = st.applyPut(ctx, op.Key, op.Val)
		} else {
			st.applyDel(ctx, op.Key)
		}
		if err != nil {
			// Preflight makes this unreachable; stop applying but still
			// commit so the machine is not left mid-transaction.
			break
		}
	}
	ctx.TxCommit()
	return err
}
