package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmemlog/internal/server"
)

// versions is the verifier's ledger for one keyspace: per key, the next
// version to issue (advanced by the key's connection's submitter) and the
// highest version whose write was acked (stored by that connection's
// waiter). Key i was last issued version next[i]-1; version 0 is the
// preload's.
type versions struct {
	next  []atomic.Uint64
	acked []atomic.Uint64
}

func newVersions(n int) *versions {
	return &versions{next: make([]atomic.Uint64, n), acked: make([]atomic.Uint64, n)}
}

// spanRec is one request's client-side spans (traced runs): submit covers
// the *Async call (frame encode, window wait, socket write), wait covers
// Call.Wait. id is the client-minted wire span the server echoed, so the
// same request resolves in a flight dump (pmdoctor -span).
type spanRec struct {
	id               uint64
	kind             uint8
	conn             uint8
	start, sent, end int64 // ns since the segment's origin
}

// maxSpans caps the spans a traced segment keeps: the trace file holds the
// first 50k requests, split evenly among the connections.
const maxSpans = 50000

// connResult is what one connection measured over a segment.
type connResult struct {
	lat      [numKinds][][]uint32 // [kind][slice]: submit→ack ns of OK-acked ops submitted in the measured window, by completion time
	sliceOps []uint64             // OK-acked ops by completion time
	ops      [numKinds]uint64     // OK-acked ops completed in the measured window
	submitNS int64                // time inside *Async calls (measured window)
	submits  uint64
	attempts uint64 // every request submitted, warm-up included
	failures []string
	nfailed  uint64
	spans    []spanRec
}

func (r *connResult) fail(format string, args ...any) {
	r.nfailed++
	if len(r.failures) < 4 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// segment is one closed-loop load phase against a running server: numConns
// pipelined connections, each submitting its stream and checking every
// reply. A timed segment (length > 0) measures [warm, warm+length); an
// untimed one runs its source dry — or, with the default endless source,
// until the server is killed under it — and measures everything.
type segment struct {
	addr   string
	ks     *keyspace
	spec   serveSpec
	vers   *versions
	warm   time.Duration
	length time.Duration
	slices int
	spans  bool
	// killed marks a segment whose server is killed under it: transport
	// errors end the connection without counting as failures.
	killed bool
	// source, when set, replaces the spec's random stream on each
	// connection; it returns false when exhausted.
	source func(g *opStream) func(*genOp) bool
	// atMeasure, when set on a timed segment, runs as the measured window
	// opens and again as it closes (counter snapshots).
	atMeasure func(open bool)
}

// inflight pairs an issued call with what the waiter needs to check it.
type inflight struct {
	call  *server.Call
	op    genOp
	start time.Time
	sent  time.Time
	lo    uint64 // GET: the key's acked version at submit
}

// segResult aggregates the connections of one segment.
type segResult struct {
	conns     []connResult
	measured  time.Duration
	attempted uint64
	failed    uint64
	failures  []string
}

func submit(c *server.Client, req *server.Request) (*server.Call, error) {
	switch req.Code {
	case server.OpGet:
		return c.GetAsync(req.Key)
	case server.OpPut:
		return c.PutAsync(req.Key, req.Val)
	}
	return c.TxnAsync(req.Ops)
}

func (sg *segment) run() (*segResult, error) {
	res := &segResult{conns: make([]connResult, numConns)}
	clients := make([]*server.Client, numConns)
	for i := range clients {
		c, err := server.DialPipelined(sg.addr, connWindow)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		c.MaxRetries = maxRetries
		if sg.spans {
			c.EnableSpans()
		}
		clients[i] = c
	}
	origin := time.Now()
	t0 := origin.Add(sg.warm)
	var t1 time.Time // zero = untimed
	if sg.length > 0 {
		t1 = t0.Add(sg.length)
	}

	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sg.runConn(ci, clients[ci], &res.conns[ci], origin, t0, t1)
		}(ci)
	}
	if sg.atMeasure != nil && sg.length > 0 {
		time.Sleep(time.Until(t0))
		sg.atMeasure(true)
		time.Sleep(time.Until(t1))
		sg.atMeasure(false)
	}
	wg.Wait()
	res.measured = sg.length
	if sg.length == 0 {
		res.measured = time.Since(origin)
	}
	for i := range res.conns {
		res.attempted += res.conns[i].attempts
		res.failed += res.conns[i].nfailed
		res.failures = append(res.failures, res.conns[i].failures...)
	}
	return res, nil
}

func (sg *segment) runConn(ci int, c *server.Client, r *connResult, origin, t0, t1 time.Time) {
	timed := !t1.IsZero()
	nslices := max(sg.slices, 1)
	sliceLen := sg.length / time.Duration(nslices)
	r.sliceOps = make([]uint64, nslices)
	for k := range r.lat {
		r.lat[k] = make([][]uint32, nslices)
	}
	g := newOpStream(sg.ks, sg.spec, ci, sg.vers)
	next := func(op *genOp) bool { g.gen(op); return true }
	if sg.source != nil {
		next = sg.source(g)
	}

	ch := make(chan inflight, connWindow)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for inf := range ch {
			resp, err := inf.call.Wait()
			end := time.Now()
			if err != nil {
				if !sg.killed {
					r.fail("conn %d: %v", ci, err)
				}
				inf.call.Release()
				continue
			}
			sg.check(r, &inf, resp)
			if sg.spans && len(r.spans) < maxSpans/numConns {
				r.spans = append(r.spans, spanRec{
					id: resp.Span, kind: uint8(inf.op.kind), conn: uint8(ci),
					start: inf.start.Sub(origin).Nanoseconds(),
					sent:  inf.sent.Sub(origin).Nanoseconds(),
					end:   end.Sub(origin).Nanoseconds(),
				})
			}
			ok := resp.Status == server.StatusOK
			inf.call.Release()
			if !ok || inf.start.Before(t0) {
				continue
			}
			lat := min(end.Sub(inf.start).Nanoseconds(), int64(^uint32(0)))
			slice := 0 // an untimed segment is one slice
			if timed {
				slice = min(int(end.Sub(t0)/sliceLen), nslices-1)
			}
			r.lat[inf.op.kind][slice] = append(r.lat[inf.op.kind][slice], uint32(lat))
			if !timed || end.Before(t1) {
				r.ops[inf.op.kind]++
				r.sliceOps[slice]++
			}
		}
	}()

	vals := make([]byte, preloadOps*sg.spec.valBytes)
	ops := make([]server.Op, 0, preloadOps)
	var submitErr error
	for !timed || time.Now().Before(t1) {
		var inf inflight
		if !next(&inf.op) {
			break
		}
		req := g.request(&inf.op, vals, ops)
		if inf.op.kind == kindGet {
			inf.lo = sg.vers.acked[inf.op.keys[0]].Load()
		}
		inf.start = time.Now()
		call, err := submit(c, &req)
		inf.sent = time.Now()
		r.attempts++
		if err != nil {
			submitErr = err
			break
		}
		if !inf.start.Before(t0) {
			r.submitNS += inf.sent.Sub(inf.start).Nanoseconds()
			r.submits++
		}
		inf.call = call
		ch <- inf
	}
	close(ch)
	<-done
	// Reported only now: until done closes, r.fail belongs to the waiter.
	if submitErr != nil && !sg.killed {
		r.fail("conn %d: submit: %v", ci, submitErr)
	}
}

// check verifies one reply against the ledger and records acked writes.
func (sg *segment) check(r *connResult, inf *inflight, resp *server.Response) {
	op := &inf.op
	if resp.Status != server.StatusOK {
		r.fail("%s key %d: status %d %s", kindName(op.kind), op.keys[0], resp.Status, resp.Err)
		return
	}
	if op.kind != kindGet {
		for j := 0; j < op.n; j++ {
			// A key's versions are acked in issue order on its one connection.
			sg.vers.acked[op.keys[j]].Store(op.vers[j])
		}
		return
	}
	if msg := checkValue(resp.Val, sg.spec.valBytes, int(op.keys[0]), inf.lo, sg.vers.next[op.keys[0]].Load()); msg != "" {
		r.fail("get key %d: %s", op.keys[0], msg)
	}
}

// checkValue is the verifier's rule for one read of key: the value must be
// intact, belong to key, and carry a version no older than the last one
// acked before the read (acked) and issued at some point (< next). It
// returns "" or what is wrong.
func checkValue(val []byte, valBytes, key int, acked, next uint64) string {
	idx, ver, err := parseValue(val, valBytes)
	switch {
	case err != nil:
		return "corrupt: " + err.Error()
	case idx != key:
		return fmt.Sprintf("corrupt: value belongs to key %d", idx)
	case ver < acked:
		return fmt.Sprintf("lost: version %d read, %d was acked before", ver, acked)
	case ver >= next:
		return fmt.Sprintf("corrupt: version %d was never issued (next is %d)", ver, next)
	}
	return ""
}

func kindName(k int) string { return [...]string{"get", "put", "txn"}[k] }

// sorted merges and sorts, slice by slice, the latency samples of the given
// kinds.
func (res *segResult) sorted(kinds ...int) [][]uint32 {
	slices := make([][]uint32, len(res.conns[0].sliceOps))
	for s := range slices {
		for i := range res.conns {
			for _, k := range kinds {
				slices[s] = append(slices[s], res.conns[i].lat[k][s]...)
			}
		}
		all := slices[s]
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	}
	return slices
}

// sliceRates returns the OK-acked ops/s of each measured slice.
func (res *segResult) sliceRates() []float64 {
	n := len(res.conns[0].sliceOps)
	rates := make([]float64, n)
	secs := res.measured.Seconds() / float64(n)
	for i := range res.conns {
		for s, ops := range res.conns[i].sliceOps {
			rates[s] += float64(ops) / secs
		}
	}
	return rates
}

// ops returns the OK-acked ops completed in the measured window: all, and
// the writes among them.
func (res *segResult) ops() (all, writes uint64) {
	for i := range res.conns {
		for k, n := range res.conns[i].ops {
			all += n
			if k != kindGet {
				writes += n
			}
		}
	}
	return all, writes
}

// preloadSource writes every key the connection owns once, as same-shard
// TXNs of preloadOps PUTs: 16 keys per request keeps the set-up short
// without changing what the server ends up holding.
func preloadSource(g *opStream) func(*genOp) bool {
	shard, at := 0, 0
	return func(op *genOp) bool {
		for shard < numShards && at >= len(g.ks.byShard[g.conn][shard]) {
			shard, at = shard+1, 0
		}
		if shard == numShards {
			return false
		}
		pool := g.ks.byShard[g.conn][shard]
		g.genTxn(op, int(pool[at]), min(preloadOps, len(pool)-at))
		at += preloadOps
		return true
	}
}

// readBackSource reads every key the connection owns once.
func readBackSource(g *opStream) func(*genOp) bool {
	i := g.conn
	return func(op *genOp) bool {
		if i >= len(g.ks.names) {
			return false
		}
		op.kind, op.n, op.keys[0] = kindGet, 1, int32(i)
		i += numConns
		return true
	}
}
