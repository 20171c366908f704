package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"pmemlog/internal/server"
)

// Load shape shared by every serving segment (see README "Load shape").
const (
	numShards  = 2  // = nproc on the reference box
	numConns   = 2  // one generator process, <= nproc connections
	connWindow = 16 // closed loop: a connection's 17th request waits for an ack
	maxRetries = 100
	txnOps     = 4 // sub-ops of a measured TXN, all on one shard
	preloadOps = 16
)

// serveSpec is one serving traffic mix. Percentages sum to 100.
type serveSpec struct {
	keys     int
	valBytes int
	getPct   int
	putPct   int // the remainder after getPct+putPct is 4-op TXNs
	zipf     bool
	logBytes uint64 // 0 = server default (256 KiB)
}

func (s serveSpec) hasWrites() bool { return s.getPct < 100 }

// Op kinds of the generated stream.
const (
	kindGet = iota
	kindPut
	kindTxn
	numKinds
)

// genOp is one generated request. keys holds n key indexes (1 for GET/PUT,
// txnOps for TXN); vers the version each write carries.
type genOp struct {
	kind int
	n    int
	keys [preloadOps]int32
	vers [preloadOps]uint64
}

// keyName is the wire key of index i: the seed salts the name (each seed
// hashes to different buckets), and the suffix is the first that homes the
// key on the shard balance asks for. Connection c's r-th key (r is also its
// zipfian rank) lives on shard (r+c) mod numShards, so for every seed each
// shard holds the same number of keys and the same share of every
// connection's hot keys; otherwise throughput follows where a seed happens
// to put the two hottest keys (one shard or two) rather than the code.
func keyName(seed int64, i int) []byte {
	want := (i/numConns + i%numConns) % numShards
	for salt := 0; ; salt++ {
		name := []byte(fmt.Sprintf("pmb%04x-%06d-%d", uint16(seed*40503), i, salt))
		if server.ShardOf(name, numShards) == want {
			return name
		}
	}
}

// Value layout: [u32 key index][u64 version][filler...][u32 crc32 of all
// that precedes]. The filler is a function of (index, version), so two
// values of one key never share bytes by accident.

// fillValue writes the value of (idx, ver) into dst (len = value size).
func fillValue(dst []byte, idx int, ver uint64) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(idx))
	binary.LittleEndian.PutUint64(dst[4:], ver)
	x := uint64(idx)*0x9E3779B97F4A7C15 ^ ver*0xBF58476D1CE4E5B9
	body := dst[12 : len(dst)-4]
	for i := range body {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		body[i] = byte(x)
	}
	binary.LittleEndian.PutUint32(dst[len(dst)-4:], crc32.ChecksumIEEE(dst[:len(dst)-4]))
}

// parseValue checks a value's length and checksum and returns what it
// claims to be.
func parseValue(val []byte, wantLen int) (idx int, ver uint64, err error) {
	if len(val) != wantLen {
		return 0, 0, fmt.Errorf("value is %d bytes, want %d", len(val), wantLen)
	}
	if crc32.ChecksumIEEE(val[:len(val)-4]) != binary.LittleEndian.Uint32(val[len(val)-4:]) {
		return 0, 0, fmt.Errorf("value checksum mismatch")
	}
	return int(binary.LittleEndian.Uint32(val)), binary.LittleEndian.Uint64(val[4:]), nil
}

// keyspace is the seed-derived key set and its split among connections.
// Connection c owns the keys with index%numConns == c and is the only
// writer and reader of them, so per-key versions are totally ordered by
// that connection's submit order (one connection feeds one shard queue in
// FIFO order) and every reply can be checked exactly.
type keyspace struct {
	seed  int64
	names [][]byte
	// byShard[c][s] lists connection c's keys homed on shard s, in index
	// order: the pool a TXN draws its same-shard keys from.
	byShard [numConns][numShards][]int32
	// pos[i] is key i's position within its byShard list.
	pos []int32
}

func newKeyspace(seed int64, n int) *keyspace {
	ks := &keyspace{seed: seed, names: make([][]byte, n), pos: make([]int32, n)}
	for i := range ks.names {
		ks.names[i] = keyName(seed, i)
		c, s := i%numConns, server.ShardOf(ks.names[i], numShards)
		ks.pos[i] = int32(len(ks.byShard[c][s]))
		ks.byShard[c][s] = append(ks.byShard[c][s], int32(i))
	}
	return ks
}

// owned returns how many keys connection c owns.
func (ks *keyspace) owned(c int) int { return (len(ks.names) - c + numConns - 1) / numConns }

// opStream generates one connection's requests. It is a pure function of
// (seed, conn, spec): the server sees only what it produces.
type opStream struct {
	ks   *keyspace
	spec serveSpec
	conn int
	rng  *rand.Rand
	zipf *rand.Zipf
	vers *versions
}

func newOpStream(ks *keyspace, spec serveSpec, conn int, vers *versions) *opStream {
	rng := rand.New(rand.NewSource(ks.seed*7919 + int64(conn) + 1))
	g := &opStream{ks: ks, spec: spec, conn: conn, rng: rng, vers: vers}
	if spec.zipf {
		// Same law as internal/whisper/ycsb.go.
		g.zipf = rand.NewZipf(rng, 1.1, 2.0, uint64(ks.owned(conn)-1))
	}
	return g
}

// pick draws one of the connection's keys.
func (g *opStream) pick() int {
	var r int
	if g.zipf != nil {
		r = int(g.zipf.Uint64())
	} else {
		r = g.rng.Intn(g.ks.owned(g.conn))
	}
	return r*numConns + g.conn
}

func (g *opStream) write(op *genOp, slot, key int) {
	op.keys[slot] = int32(key)
	op.vers[slot] = g.vers.next[key].Add(1) - 1
}

// gen fills op with the next request.
func (g *opStream) gen(op *genOp) {
	roll := g.rng.Intn(100)
	key := g.pick()
	switch {
	case roll < g.spec.getPct:
		op.kind, op.n = kindGet, 1
		op.keys[0] = int32(key)
	case roll < g.spec.getPct+g.spec.putPct:
		op.kind, op.n = kindPut, 1
		g.write(op, 0, key)
	default:
		g.genTxn(op, key, txnOps)
	}
}

// genTxn fills op with an n-key TXN: key and its n-1 successors in the
// connection's pool for key's shard, so all share a shard and are distinct.
func (g *opStream) genTxn(op *genOp, key, n int) {
	pool := g.ks.byShard[g.conn][server.ShardOf(g.ks.names[key], numShards)]
	if n > len(pool) {
		n = len(pool)
	}
	op.kind, op.n = kindTxn, n
	at := int(g.ks.pos[key])
	for j := 0; j < n; j++ {
		g.write(op, j, int(pool[(at+j)%len(pool)]))
	}
}

// request builds the wire request of op. Values are written into vals,
// which must hold op.n*valBytes bytes; the request aliases it.
func (g *opStream) request(op *genOp, vals []byte, ops []server.Op) server.Request {
	vb := g.spec.valBytes
	switch op.kind {
	case kindGet:
		return server.Request{Code: server.OpGet, Key: g.ks.names[op.keys[0]]}
	case kindPut:
		fillValue(vals[:vb], int(op.keys[0]), op.vers[0])
		return server.Request{Code: server.OpPut, Key: g.ks.names[op.keys[0]], Val: vals[:vb]}
	}
	ops = ops[:0]
	for j := 0; j < op.n; j++ {
		v := vals[j*vb : (j+1)*vb]
		fillValue(v, int(op.keys[j]), op.vers[j])
		ops = append(ops, server.Op{Code: server.OpPut, Key: g.ks.names[op.keys[j]], Val: v})
	}
	return server.Request{Code: server.OpTxn, Ops: ops}
}
