package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connCounter mints process-unique connection IDs for span bases. It
// starts at 1 so a span (connID<<32 | seq) is never zero — zero is the
// wire encoding for "untraced".
var connCounter atomic.Uint64

// Client is a pmserver client. The synchronous methods (Get/Put/Del/Txn/
// Stats/Metrics) behave exactly as they always have — one request in
// flight, blocking until the answer arrives — and are not safe for
// concurrent use on a window-1 client from Dial.
//
// A client from DialPipelined keeps up to window requests in flight on
// the one connection: GetAsync/PutAsync/TxnAsync return a Call
// immediately (blocking only when the window is full), a background
// reader matches responses to calls by sequence number (the server
// answers in completion order, not submission order), and Call.Wait
// collects the result. A pipelined client's methods may be used from
// multiple goroutines.
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	window int

	// Writer state: one frame build buffer, serialized by wmu so frames
	// from concurrent senders never interleave on the wire.
	wmu  sync.Mutex
	wbuf []byte

	// In-flight bookkeeping.
	mu      sync.Mutex
	seq     uint32
	pending map[uint32]*Call
	closed  error // transport/protocol failure; sticky

	// recent is a ring of recently completed sequence numbers (see
	// isRecentLocked). A response matching no pending call but a recent
	// completion is a duplicated ack (a retransmit the transport failed
	// to suppress) and is dropped; an unknown seq outside the ring still
	// fails the client, because it means the stream is desynchronized.
	recent  []uint32
	recentN uint64 // completions ever recorded

	tokens     chan struct{} // in-flight window semaphore
	readerDone chan struct{} // closed when the read loop exits

	// Span minting (EnableSpans): when on, every request carries
	// spanBase|seq so the server's flight recorder can attribute each
	// pipeline hop to this exact request.
	spans    bool
	spanBase uint64

	// MaxRetries bounds automatic retry on StatusRetry backpressure
	// (sleeping the server-suggested delay between attempts). Zero means
	// backpressure surfaces as ErrRetry and the caller schedules the retry.
	MaxRetries int
}

// Call is one in-flight pipelined request. Exactly one completion is
// delivered: after Wait returns, Resp and Err are stable.
type Call struct {
	c        *Client
	seq      uint32
	attempts int
	body     []byte // encoded request body (kept for retry resend)
	val      []byte // response value copy (owned by this Call)
	done     chan struct{}

	// resending counts detached retry goroutines still holding this call.
	// failAll can complete a call while its resend goroutine sleeps, and
	// the pool must not recycle the body buffer out from under that
	// goroutine's eventual send: a nonzero count makes Release/roundTrip
	// drop the call to the GC instead of pooling it.
	resending atomic.Int32

	Resp Response
	Err  error
}

var callPool = sync.Pool{New: func() any {
	return &Call{done: make(chan struct{}, 1)}
}}

// ErrRetry reports server backpressure to callers that manage their own
// retry policy.
type ErrRetry struct{ After time.Duration }

func (e ErrRetry) Error() string {
	return fmt.Sprintf("server busy, retry after %v", e.After)
}

// ErrServer carries a StatusErr message.
type ErrServer struct{ Msg string }

func (e ErrServer) Error() string { return e.Msg }

// Dial connects to a pmserver with a synchronous (window 1) client.
func Dial(addr string) (*Client, error) {
	return DialPipelined(addr, 1)
}

// DialPipelined connects with up to window requests in flight.
func DialPipelined(addr string, window int) (*Client, error) {
	if window < 1 {
		window = 1
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	ring := 2 * window
	if ring < 16 {
		ring = 16
	}
	c := &Client{
		conn:       conn,
		br:         bufio.NewReader(conn),
		window:     window,
		pending:    make(map[uint32]*Call, window),
		recent:     make([]uint32, ring),
		tokens:     make(chan struct{}, window),
		readerDone: make(chan struct{}),
		spanBase:   connCounter.Add(1) << 32,
	}
	go c.readLoop()
	return c, nil
}

// EnableSpans makes every subsequent request carry a connection-scoped
// span ID (connection counter in the high 32 bits, request sequence in
// the low 32). The server echoes the span on the response and threads
// it through every pipeline hop's trace events. Call before issuing
// requests; it is not synchronized with concurrent senders.
func (c *Client) EnableSpans() { c.spans = true }

// Close tears the connection down. In-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// Window reports the client's in-flight window size.
func (c *Client) Window() int { return c.window }

// start encodes req, assigns it the next sequence number, registers it,
// and sends it. It blocks while the in-flight window is full.
func (c *Client) start(req *Request) (*Call, error) {
	select {
	case c.tokens <- struct{}{}:
	case <-c.readerDone:
		return nil, c.err()
	}
	call := callPool.Get().(*Call)
	call.c, call.attempts, call.Err = c, 0, nil
	call.Resp = Response{}

	c.mu.Lock()
	if c.closed != nil {
		err := c.closed
		c.mu.Unlock()
		<-c.tokens
		callPool.Put(call)
		return nil, err
	}
	call.seq = c.seq
	c.seq++
	req.Seq = call.seq
	if c.spans {
		req.Span = c.spanBase | uint64(call.seq)
	}
	body, err := EncodeRequest(call.body[:0], req)
	if err != nil {
		c.mu.Unlock()
		<-c.tokens
		callPool.Put(call)
		return nil, err
	}
	call.body = body
	c.pending[call.seq] = call
	c.mu.Unlock()

	if err := c.send(call); err != nil {
		c.failAll(err)
		return nil, err
	}
	return call, nil
}

// send writes call's frame ([len][body]) with a single Write.
func (c *Client) send(call *Call) error {
	c.wmu.Lock()
	c.wbuf = AppendFrame(c.wbuf[:0], call.body)
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	return err
}

func (c *Client) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed != nil {
		return c.closed
	}
	return fmt.Errorf("server: client closed")
}

// failAll marks the client dead and fails every pending call.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.closed == nil {
		c.closed = err
	}
	err = c.closed
	var calls []*Call
	for seq, call := range c.pending {
		delete(c.pending, seq)
		calls = append(calls, call)
	}
	c.mu.Unlock()
	for _, call := range calls {
		call.Err = err
		call.done <- struct{}{}
		<-c.tokens
	}
}

// isRecentLocked reports whether seq completed recently — the test that
// separates a duplicated ack (drop it) from a desynchronized stream
// (fail the client). Callers hold c.mu.
func (c *Client) isRecentLocked(seq uint32) bool {
	n := uint64(len(c.recent))
	if c.recentN < n {
		n = c.recentN
	}
	for i := uint64(0); i < n; i++ {
		if c.recent[i] == seq {
			return true
		}
	}
	return false
}

// readLoop matches responses to pending calls by sequence number,
// transparently resending StatusRetry'd requests up to MaxRetries.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	var buf []byte
	var resp Response
	for {
		body, err := ReadFrameInto(c.br, buf, MaxFrame)
		if err != nil {
			c.failAll(err)
			return
		}
		buf = body[:cap(body)]
		if err := DecodeResponseInto(&resp, body); err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		call := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		if call != nil && !(resp.Status == StatusRetry && call.attempts < c.MaxRetries) {
			// This response completes the call (the retry path below
			// re-registers it instead): remember the seq so a duplicated
			// ack is recognized and dropped.
			c.recent[c.recentN%uint64(len(c.recent))] = resp.Seq
			c.recentN++
		}
		dup := call == nil && c.isRecentLocked(resp.Seq)
		c.mu.Unlock()
		if call == nil {
			if dup {
				continue // duplicated ack for a completed request
			}
			c.failAll(fmt.Errorf("server: response for unknown seq %d", resp.Seq))
			return
		}
		if resp.Status == StatusRetry && call.attempts < c.MaxRetries {
			call.attempts++
			after := time.Duration(resp.RetryAfterMs) * time.Millisecond
			c.mu.Lock()
			if c.closed != nil {
				err := c.closed
				c.mu.Unlock()
				call.Err = err
				call.done <- struct{}{}
				<-c.tokens
				continue
			}
			// Count the resend before re-registering: once the call is back
			// in pending, failAll may complete it at any moment, and the
			// count is what keeps the completed call out of the pool while
			// the goroutine below still reads its body buffer.
			call.resending.Add(1)
			c.pending[call.seq] = call
			c.mu.Unlock()
			go func(call *Call, after time.Duration) {
				time.Sleep(after)
				err := c.send(call)
				call.resending.Add(-1)
				if err != nil {
					c.failAll(err)
				}
			}(call, after)
			continue
		}
		// resp.Val aliases the read buffer (reused next iteration): copy
		// into the call's own reusable buffer before handing it over.
		call.Resp = resp
		if resp.Val != nil {
			call.val = append(call.val[:0], resp.Val...)
			call.Resp.Val = call.val
		}
		if resp.Status == StatusRetry {
			call.Err = ErrRetry{After: time.Duration(resp.RetryAfterMs) * time.Millisecond}
		}
		call.done <- struct{}{}
		<-c.tokens
	}
}

// Wait blocks until the call completes. The returned Response is owned by
// the Call: it is valid until Release.
func (call *Call) Wait() (*Response, error) {
	<-call.done
	if call.Err != nil {
		return nil, call.Err
	}
	return &call.Resp, nil
}

// Release recycles a completed call (after Wait). The call and its
// Response must not be touched afterwards. Optional — an unreleased call
// is simply garbage collected — but steady-state release keeps the
// pipelined hot path allocation free.
func (call *Call) Release() {
	call.c = nil
	call.Resp = Response{}
	call.Err = nil
	if call.resending.Load() == 0 {
		callPool.Put(call)
	}
}

// GetAsync starts a pipelined GET.
func (c *Client) GetAsync(key []byte) (*Call, error) {
	return c.start(&Request{Code: OpGet, Key: key})
}

// PutAsync starts a pipelined durable PUT.
func (c *Client) PutAsync(key, val []byte) (*Call, error) {
	return c.start(&Request{Code: OpPut, Key: key, Val: val})
}

// TxnAsync starts a pipelined atomic batch.
func (c *Client) TxnAsync(ops []Op) (*Call, error) {
	return c.start(&Request{Code: OpTxn, Ops: ops})
}

// Flush blocks until every in-flight request has completed (the window is
// empty). It does not prevent concurrent senders from starting new work
// while it drains.
func (c *Client) Flush() error {
	for i := 0; i < c.window; i++ {
		select {
		case c.tokens <- struct{}{}:
		case <-c.readerDone:
			return c.err()
		}
	}
	for i := 0; i < c.window; i++ {
		<-c.tokens
	}
	return nil
}

// roundTrip sends one request and waits for its response.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	call, err := c.start(req)
	if err != nil {
		return nil, err
	}
	<-call.done
	if call.Err != nil {
		err := call.Err
		recycleCall(call)
		return nil, err
	}
	resp := call.Resp
	// Hand Val's ownership to the caller (the old synchronous client
	// returned a caller-owned slice).
	call.val = nil
	recycleCall(call)
	return &resp, nil
}

func recycleCall(call *Call) {
	call.c = nil
	call.Resp = Response{}
	call.Err = nil
	if call.resending.Load() == 0 {
		callPool.Put(call)
	}
}

// Get fetches a key; found=false means the key does not exist.
func (c *Client) Get(key []byte) (val []byte, found bool, err error) {
	resp, err := c.roundTrip(&Request{Code: OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	switch resp.Status {
	case StatusOK:
		return resp.Val, true, nil
	case StatusNotFound:
		return nil, false, nil
	}
	return nil, false, ErrServer{Msg: resp.Err}
}

// Put durably stores key=val. A nil error means the write is acked: it
// survives a server kill.
func (c *Client) Put(key, val []byte) error {
	resp, err := c.roundTrip(&Request{Code: OpPut, Key: key, Val: val})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return ErrServer{Msg: resp.Err}
	}
	return nil
}

// Del durably deletes a key; found=false means it did not exist.
func (c *Client) Del(key []byte) (found bool, err error) {
	resp, err := c.roundTrip(&Request{Code: OpDel, Key: key})
	if err != nil {
		return false, err
	}
	switch resp.Status {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	}
	return false, ErrServer{Msg: resp.Err}
}

// Txn atomically applies a batch of PUT/DEL ops. All keys must hash to one
// shard (use ShardOf to build conforming batches); the server rejects
// cross-shard batches.
func (c *Client) Txn(ops []Op) error {
	resp, err := c.roundTrip(&Request{Code: OpTxn, Ops: ops})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return ErrServer{Msg: resp.Err}
	}
	return nil
}

// Stats fetches and decodes the server's stats snapshot.
func (c *Client) Stats() (StatsSnapshot, error) {
	var snap StatsSnapshot
	resp, err := c.roundTrip(&Request{Code: OpStats})
	if err != nil {
		return snap, err
	}
	if resp.Status != StatusOK {
		return snap, ErrServer{Msg: resp.Err}
	}
	err = json.Unmarshal(resp.Val, &snap)
	return snap, err
}

// Metrics fetches the server's metrics snapshot in Prometheus text
// exposition format: request-path counters, per-op latency histograms,
// and the simulated machines' cumulative persistence counters.
func (c *Client) Metrics() ([]byte, error) {
	resp, err := c.roundTrip(&Request{Code: OpMetrics})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, ErrServer{Msg: resp.Err}
	}
	return resp.Val, nil
}

// StatsJSON fetches the raw stats JSON document.
func (c *Client) StatsJSON() ([]byte, error) {
	resp, err := c.roundTrip(&Request{Code: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, ErrServer{Msg: resp.Err}
	}
	return resp.Val, nil
}
