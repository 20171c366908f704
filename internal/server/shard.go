package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs"
	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/recovery"
	"pmemlog/internal/sim"
	"pmemlog/internal/stats"
)

// request is one unit of work queued to a shard: either a client Request
// or an internal stats probe (req == nil). Exactly one response is
// delivered — a probe's on its buffered stats channel, a client
// request's by handing the owning connReq back on its connection's out
// channel — so a shard never blocks on a departed client.
type request struct {
	req   *Request
	stats chan ShardStats // stats probes

	// Client requests: the shard fills pr.resp and sends pr on out. out
	// has capacity for the connection's whole in-flight window, so the
	// send never blocks.
	pr  *connReq
	out chan *connReq
}

// ShardStats is one shard's slice of the stats endpoint snapshot.
type ShardStats struct {
	ID            int              `json:"id"`
	Keys          uint64           `json:"keys"`
	HeapUsedBytes uint64           `json:"heap_used_bytes"`
	HeapSizeBytes uint64           `json:"heap_size_bytes"`
	QueueLen      int              `json:"queue_len"`
	QueueCap      int              `json:"queue_cap"`
	Batches       uint64           `json:"batches"`
	Saves         uint64           `json:"saves"`
	Requests      uint64           `json:"requests"`
	Run           stats.Run        `json:"run"`                // cumulative simulated-machine counters
	Recovery      *recovery.Report `json:"recovery,omitempty"` // boot-time recovery, if the shard attached an image
}

// shard owns one simulated persistent-memory machine and serializes all
// access to it: requests are batched off a bounded queue, each batch runs
// as a sequence of transactions through the HWL/FWB pipeline, the NVRAM
// DIMM image is atomically persisted, and only then are writes acked.
type shard struct {
	id       int
	sys      *sim.System
	st       *store
	imgPath  string
	queue    chan *request
	stop     chan struct{} // graceful: drain queue, final save, exit
	kill     chan struct{} // hard: exit without saving (power-cut analogue)
	done     chan struct{} // closed when the loop exits
	batchMax int

	// live is the loop's working copy of the shard view: its Requests,
	// Batches and Saves are the loop's own counters, the rest is refreshed
	// from the machine by publish.
	live    pulse.ShardSample
	unsaved bool             // writes committed since the last image save
	bootRep *recovery.Report // recovery report from attach, if any

	// Loop-owned scratch reused across batches so the steady-state batch
	// path performs no per-batch slice allocation.
	batch []*request
	resps []Response

	// Observability, installed by Start before loop() runs. tracer may
	// be nil (Emit/Enabled are nil-safe); ring sh.id is this shard's.
	tracer *obs.Tracer
	nowNS  func() uint64

	// onPanic, when set, writes a flight-recorder dump before the panic
	// propagates out of the shard loop and kills the process.
	onPanic func()

	// pub is the published view: publish copies live into it once per
	// batch under pubMu, and view is how every concurrent reader (pulse
	// sampler, /metrics, /healthz, flight dumps) sees the shard — one
	// value, never torn, without touching the loop-owned machine.
	// logBases is static after newShard.
	pubMu    sync.Mutex
	pub      pulse.ShardSample
	logBases []uint64
}

// newShard builds (or re-attaches) one shard.
func newShard(id int, cfg sim.Config, nBuckets uint64, dir string, queueDepth, batchMax int) (*shard, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: %w", id, err)
	}
	sh := &shard{
		id:       id,
		sys:      sys,
		imgPath:  filepath.Join(dir, fmt.Sprintf("shard-%03d.img", id)),
		queue:    make(chan *request, queueDepth),
		stop:     make(chan struct{}),
		kill:     make(chan struct{}),
		done:     make(chan struct{}),
		batchMax: batchMax,
	}
	if f, err := os.Open(sh.imgPath); err == nil {
		rep, err := sys.Attach(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: attach %s: %w", id, sh.imgPath, err)
		}
		if sh.st, err = attachStore(sys, nBuckets); err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", id, err)
		}
		sh.bootRep = &rep
	} else if os.IsNotExist(err) {
		if sh.st, err = createStore(sys, nBuckets); err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", id, err)
		}
		// Persist the empty image immediately so a kill before the first
		// write still leaves a valid, attachable shard on disk.
		if err := sh.save(); err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", id, err)
		}
	} else {
		return nil, fmt.Errorf("server: shard %d: %w", id, err)
	}
	for _, base := range sys.LogBases() {
		sh.logBases = append(sh.logBases, uint64(base))
	}
	sh.publish()
	return sh, nil
}

// publish refreshes live from the machine and copies it into the
// published view in one critical section (loop goroutine, or newShard
// before the loop starts). No allocation, no obs calls.
//
//pmlint:hot
func (sh *shard) publish() {
	sh.sys.Snapshot(&sh.live.Snapshot)
	sh.live.Keys = sh.st.keys
	sh.pubMu.Lock()
	sh.pub = sh.live
	sh.pubMu.Unlock()
}

// view returns the shard as of its last completed batch, with the queue
// gauges read now. Safe from any goroutine; never blocks on the loop.
//
//pmlint:hot
func (sh *shard) view() pulse.ShardSample {
	sh.pubMu.Lock()
	v := sh.pub
	sh.pubMu.Unlock()
	v.QueueLen, v.QueueCap = len(sh.queue), cap(sh.queue)
	return v
}

// flightState renders the view as the flight recorder's shard record,
// the form dumps and /healthz derive wrap pressure from.
func (sh *shard) flightState() flight.ShardState {
	v := sh.view()
	return flight.ShardState{
		Shard:     sh.id,
		QueueLen:  v.QueueLen,
		QueueCap:  v.QueueCap,
		LogHead:   v.LogHead,
		LogTail:   v.LogTail,
		LogCap:    v.LogCap,
		LogBases:  sh.logBases,
		ImagePath: sh.imgPath,
	}
}

// save persists the high-water mark and the DIMM image atomically. The
// machine's volatile controller buffers are drained first so every
// committed transaction's log records (and commit record) are in the
// image — without this, recovery could roll back an acked write.
func (sh *shard) save() error {
	sh.sys.Quiesce()
	sh.st.persistHighWater()
	if err := sh.sys.NVRAMImage().WriteFile(sh.imgPath); err != nil {
		return err
	}
	sh.live.Saves++
	sh.unsaved = false
	return nil
}

// loop is the shard worker goroutine.
//
//pmlint:hot
func (sh *shard) loop() {
	defer close(sh.done)
	defer func() {
		// A shard panic takes the process down; snapshot the black box
		// first so pmctl doctor can explain what was in flight, then let the
		// panic propagate (masking it would fake liveness).
		if r := recover(); r != nil {
			if sh.onPanic != nil {
				sh.onPanic()
			}
			panic(r)
		}
	}()
	for {
		select {
		case <-sh.kill:
			return
		case <-sh.stop:
			sh.drain()
			return
		case first := <-sh.queue:
			sh.runBatch(sh.collect(first))
		}
	}
}

// collect gathers up to batchMax already-queued requests behind first into
// the shard's reusable batch slice (valid until the next collect).
//
//pmlint:hot
func (sh *shard) collect(first *request) []*request {
	batch := append(sh.batch[:0], first)
	for len(batch) < sh.batchMax {
		select {
		case r := <-sh.queue:
			batch = append(batch, r)
		default:
			sh.batch = batch
			return batch
		}
	}
	sh.batch = batch
	return batch
}

// drain answers everything already queued, then takes a final save.
//
//pmlint:hot
func (sh *shard) drain() {
	for {
		select {
		case r := <-sh.queue:
			sh.runBatch(sh.collect(r))
		default:
			if sh.unsaved {
				sh.save()
			}
			return
		}
	}
}

// runBatch executes one batch: every request's transaction(s) run on the
// shard's machine in arrival order, the image is persisted if anything was
// written, and only then are the responses released — the acked-durability
// point.
//
//pmlint:hot
func (sh *shard) runBatch(batch []*request) {
	sh.live.Batches++
	if cap(sh.resps) < len(batch) {
		sh.resps = make([]Response, len(batch))
	}
	resps := sh.resps[:len(batch)]
	for i := range resps {
		resps[i] = Response{}
	}
	wrote := false
	anySpan := false
	runErr := sh.sys.RunN(func(ctx sim.Ctx, _ int) {
		for i, r := range batch {
			if r.req == nil {
				continue // stats probe: answered after the batch
			}
			sh.live.Requests++
			tag, sp := r.pr.spanTag, r.pr.span
			if sh.tracer.Enabled() {
				sh.tracer.EmitSpan(sh.id, sh.nowNS(), obs.KindSrvApply, 0, uint64(r.req.Code), tag)
			}
			var tailBefore, commitBefore uint64
			if tag != 0 {
				// Stamp the machine's tx/log events with this request's
				// span while it applies; bracketing the log tail and the
				// commit clock attributes the appended records and the
				// machine txn to the span afterwards.
				sh.sys.SetSpan(tag)
			}
			if sp != nil {
				anySpan = true
				sp.Mark(flight.StageApply, int64(sh.nowNS()))
				_, tailBefore, _ = sh.sys.LogState()
				_, _, commitBefore = sh.sys.LastCommit()
			}
			resps[i], r.pr.val = sh.apply(ctx, r.req, r.pr.val[:0])
			if sp != nil {
				_, tailAfter, _ := sh.sys.LogState()
				sp.SetLogWindow(tailBefore, tailAfter)
				if txid, begin, commit := sh.sys.LastCommit(); commit != commitBefore {
					sp.SetTxn(txid, begin, commit)
				}
			}
			if tag != 0 {
				sh.sys.SetSpan(0)
			}
			if resps[i].Status == StatusOK && r.req.Code != OpGet {
				wrote = true
			}
		}
	})
	// FWB and durable are batch-granular points, stamped on every spanned
	// request: the machine run (txns + log appends) ends here, and settle
	// is the batch's durability point (FWB drain + image persist). The
	// marks bracket exactly the interval the pulse waterfall attributes
	// to the "apply" and "fwb" latency stages.
	if anySpan {
		fwbNS := int64(sh.nowNS())
		for _, r := range batch {
			if r.pr != nil && r.pr.span != nil {
				r.pr.span.Mark(flight.StageFWB, fwbNS)
			}
		}
	}
	sh.settle(runErr, wrote, batch, resps)
	if anySpan {
		durNS := int64(sh.nowNS())
		for _, r := range batch {
			if r.pr != nil && r.pr.span != nil {
				r.pr.span.Mark(flight.StageDurable, durNS)
			}
		}
	}
	sh.publish()
	for i, r := range batch {
		if r.stats != nil {
			r.stats <- sh.snapshot()
			continue
		}
		if sh.tracer.Enabled() {
			sh.tracer.EmitSpan(sh.id, sh.nowNS(), obs.KindSrvAck, 0, uint64(resps[i].Status), r.pr.spanTag)
		}
		r.pr.resp = resps[i]
		r.pr.resp.Seq = r.req.Seq
		r.pr.resp.Span = r.req.Span
		r.out <- r.pr
	}
}

// settle is the batch's durability point, between the last transaction
// and the first ack: if anything was written the DIMM image is persisted
// (save = Quiesce + WriteFile), and any outcome that cannot be made
// durable is downgraded to an error before a client can see it. Keeping
// this in one call means the image persist dominates every ack send in
// runBatch on all paths — the ordering pmlint's ackafterdurable rule
// proves; whether the skip-save condition (read-only batch) is right is
// what TestFlightDumpKillRecoveryAgreement checks dynamically.
func (sh *shard) settle(runErr error, wrote bool, batch []*request, resps []Response) {
	switch {
	case runErr != nil:
		// Machine fault (e.g. wedged log): the batch's effects are
		// indeterminate, so nothing is acked as OK.
		for i := range resps {
			resps[i] = Response{Status: StatusErr, Err: "shard machine fault: " + runErr.Error()}
		}
	case wrote:
		sh.unsaved = true
		if err := sh.save(); err != nil {
			// Commits happened on the simulated machine but the image did
			// not persist: acking would break the durability contract.
			for i, r := range batch {
				if r.req != nil && r.req.Code != OpGet {
					resps[i] = Response{Status: StatusErr, Err: "image save failed: " + err.Error()}
				}
			}
		}
	}
}

// apply executes one request inside the batch's worker. A GET value is
// appended to dst (the caller's reusable scratch); the returned slice is
// the grown scratch to keep for the next call.
//
//pmlint:hot
func (sh *shard) apply(ctx sim.Ctx, req *Request, dst []byte) (Response, []byte) {
	switch req.Code {
	case OpGet:
		if v, ok := sh.st.get(ctx, req.Key, dst); ok {
			return Response{Status: StatusOK, Val: v}, v
		}
		return Response{Status: StatusNotFound}, dst
	case OpPut:
		if err := sh.st.put(ctx, req.Key, req.Val); err != nil {
			return Response{Status: StatusErr, Err: err.Error()}, dst
		}
		return Response{Status: StatusOK}, dst
	case OpDel:
		if sh.st.del(ctx, req.Key) {
			return Response{Status: StatusOK}, dst
		}
		return Response{Status: StatusNotFound}, dst
	case OpTxn:
		if err := sh.st.txn(ctx, req.Ops); err != nil {
			return Response{Status: StatusErr, Err: err.Error()}, dst
		}
		return Response{Status: StatusOK}, dst
	}
	return Response{Status: StatusErr, Err: "unroutable opcode"}, dst
}

// snapshot assembles the shard's stats slice (loop goroutine only).
func (sh *shard) snapshot() ShardStats {
	return ShardStats{
		ID:            sh.id,
		Keys:          sh.st.keys,
		HeapUsedBytes: sh.sys.Heap().Used(),
		HeapSizeBytes: sh.sys.Heap().Size(),
		QueueLen:      len(sh.queue),
		QueueCap:      cap(sh.queue),
		Batches:       sh.live.Batches,
		Saves:         sh.live.Saves,
		Requests:      sh.live.Requests,
		Run:           sh.sys.Stats(),
		Recovery:      sh.bootRep,
	}
}

// tryEnqueue offers a request to the bounded queue without blocking.
func (sh *shard) tryEnqueue(r *request) bool {
	select {
	case sh.queue <- r:
		return true
	default:
		return false
	}
}
