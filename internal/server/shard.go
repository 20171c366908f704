package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pmemlog/internal/flight"
	"pmemlog/internal/obs/pulse"
	"pmemlog/internal/recovery"
	"pmemlog/internal/sim"
	"pmemlog/internal/stats"
)

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
	Run           stats.Run        `json:"run"`                // cumulative simulated-machine counters; derived fields zero
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
	queue    chan *connReq
	stop     chan struct{} // graceful: drain queue, final save, exit
	kill     chan struct{} // hard: exit without saving (power-cut analogue)
	done     chan struct{} // closed when the loop exits
	batchMax int

	// live is the loop's working copy of the shard view: its Requests,
	// Batches and Saves are the loop's own counters, the rest is refreshed
	// from the machine and the store by publish.
	live    pulse.ShardSample
	unsaved bool             // writes committed since the last image save
	bootRep *recovery.Report // recovery report from attach, if any

	// The running batch's outcome, reset by runBatch: a request wrote, a
	// request carries a span. Fields, not locals, so the machine-run
	// closure that sets them does not move them to the heap.
	wrote, anySpan bool

	// Loop-owned scratch reused across batches so the steady-state batch
	// path performs no per-batch slice allocation.
	batch []*connReq

	// nowNS is the span clock, installed by Start before loop() runs.
	nowNS func() uint64

	// onPanic, when set, writes a flight-recorder dump before the panic
	// propagates out of the shard loop and kills the process.
	onPanic func()

	// pub is the published view: publish copies live into it once per
	// batch under pubMu, and view is how every concurrent reader (pulse
	// sampler, the stats document, /metrics, /healthz, flight dumps) sees
	// the shard — one value, never torn, without touching the loop-owned
	// machine. logBases is static after newShard.
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
		queue:    make(chan *connReq, queueDepth),
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
func (sh *shard) publish() {
	sh.sys.Snapshot(&sh.live.Snapshot)
	sh.live.Keys = sh.st.keys
	sh.live.HeapUsedBytes = sh.sys.Heap().Used()
	sh.pubMu.Lock()
	sh.pub = sh.live
	sh.pubMu.Unlock()
}

// view returns the shard as of its last completed batch, with the queue
// gauges read now. Safe from any goroutine; never blocks on the loop.
func (sh *shard) view() pulse.ShardSample {
	sh.pubMu.Lock()
	v := sh.pub
	sh.pubMu.Unlock()
	v.QueueLen, v.QueueCap = len(sh.queue), cap(sh.queue)
	return v
}

// shardStats renders a view of this shard as its slice of the stats document.
// The run carries every machine counter; its derived end-of-run fields
// are zero (see sim.System.RunOf). The heap size, the boot report and
// the run's labels are fixed when the shard is built, so no field waits
// on the loop.
func (sh *shard) shardStats(v *pulse.ShardSample) ShardStats {
	return ShardStats{
		ID:            sh.id,
		Keys:          v.Keys,
		HeapUsedBytes: v.HeapUsedBytes,
		HeapSizeBytes: sh.sys.Heap().Size(),
		QueueLen:      v.QueueLen,
		QueueCap:      v.QueueCap,
		Batches:       v.Batches,
		Saves:         v.Saves,
		Requests:      v.Requests,
		Run:           sh.sys.RunOf(&v.Snapshot),
		Recovery:      sh.bootRep,
	}
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
func (sh *shard) collect(first *connReq) []*connReq {
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
// shard's machine in arrival order, each response written into its
// connReq, the image is persisted if anything was written, and only then
// are the responses released — the acked-durability point.
func (sh *shard) runBatch(batch []*connReq) {
	sh.live.Batches++
	sh.wrote, sh.anySpan = false, false
	// The machine run never blocks this goroutine, so nothing in it wakes
	// an idle processor, which then sleeps in the OS until the next
	// connection wake-up. An empty goroutine left runnable here is stolen
	// by one woken for it (DESIGN.md §11).
	go func() {}()
	runErr := sh.sys.RunN(func(ctx sim.Ctx, _ int) {
		for _, cr := range batch {
			sh.live.Requests++
			tag, sp := cr.spanTag, cr.span
			var tailBefore, commitBefore uint64
			if tag != 0 {
				// Stamp the machine's tx/log events with this request's
				// span while it applies; bracketing the log tail and the
				// commit clock attributes the appended records and the
				// machine txn to the span afterwards.
				sh.sys.SetSpan(tag)
			}
			if sp != nil {
				sh.anySpan = true
				sp.Mark(flight.StageApply, int64(sh.nowNS()))
				_, tailBefore, _ = sh.sys.LogState()
				_, _, commitBefore = sh.sys.LastCommit()
			}
			cr.resp, cr.val = sh.apply(ctx, &cr.req, cr.val[:0])
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
			if cr.resp.Status == StatusOK && cr.req.Code != OpGet {
				sh.wrote = true
			}
		}
	})
	// FWB and durable are batch-granular points, stamped on every spanned
	// request: the machine run (txns + log appends) ends here, and settle
	// is the batch's durability point (FWB drain + image persist). The
	// marks bracket exactly the interval the pulse waterfall attributes
	// to the "apply" and "fwb" latency stages.
	if sh.anySpan {
		fwbNS := int64(sh.nowNS())
		for _, cr := range batch {
			if cr.span != nil {
				cr.span.Mark(flight.StageFWB, fwbNS)
			}
		}
	}
	sh.settle(runErr, batch)
	if sh.anySpan {
		durNS := int64(sh.nowNS())
		for _, cr := range batch {
			if cr.span != nil {
				cr.span.Mark(flight.StageDurable, durNS)
			}
		}
	}
	sh.publish()
	for _, cr := range batch {
		cr.resp.Seq = cr.req.Seq
		cr.resp.Span = cr.req.Span
		cr.out <- cr
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
func (sh *shard) settle(runErr error, batch []*connReq) {
	switch {
	case runErr != nil:
		// Machine fault (e.g. wedged log): the batch's effects are
		// indeterminate, so nothing is acked as OK.
		for _, cr := range batch {
			cr.resp = Response{Status: StatusErr, Err: "shard machine fault: " + runErr.Error()}
		}
	case sh.wrote:
		sh.unsaved = true
		if err := sh.save(); err != nil {
			// Commits happened on the simulated machine but the image did
			// not persist: acking would break the durability contract.
			for _, cr := range batch {
				if cr.req.Code != OpGet {
					cr.resp = Response{Status: StatusErr, Err: "image save failed: " + err.Error()}
				}
			}
		}
	}
}

// apply executes one request inside the batch's worker. A GET value is
// appended to dst (the caller's reusable scratch); the returned slice is
// the grown scratch to keep for the next call.
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

// tryEnqueue offers a request to the bounded queue without blocking.
func (sh *shard) tryEnqueue(cr *connReq) bool {
	select {
	case sh.queue <- cr:
		return true
	default:
		return false
	}
}
