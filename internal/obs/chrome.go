package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"pmemlog/internal/stats"
)

// Chrome trace_event export. The format is the JSON Object Format from
// the Trace Event Format spec: a top-level object with a "traceEvents"
// array, loadable in about:tracing and Perfetto. Transactions become
// duration ("B"/"E") events nested per ring (= per simulated thread);
// everything else becomes thread-scoped instant ("i") events, so a
// wrap-around or buffer stall shows up as a tick exactly where it
// happened relative to the transactions above it.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// category groups kinds into about:tracing filter categories.
func category(k Kind) string {
	switch k {
	case KindTxBegin, KindTxCommit, KindTxAbort:
		return "txn"
	case KindLogAppend, KindLogWrap, KindLogStall, KindLogTruncate:
		return "log"
	case KindBufDrain, KindBufStall, KindWriteBack:
		return "memctl"
	case KindFwbScan, KindFwbForced:
		return "fwb"
	}
	return "misc"
}

// argsFor decodes the kind-specific payload into named args.
func argsFor(e Event) map[string]any {
	a := map[string]any{}
	if e.TxID != 0 {
		a["txid"] = e.TxID
	}
	switch e.Kind {
	case KindLogAppend:
		a["seq"] = e.Arg
	case KindLogWrap:
		a["pass"] = e.Arg
	case KindLogTruncate:
		a["records"] = e.Arg
	case KindLogStall, KindBufStall:
		a["detail"] = e.Arg
	case KindBufDrain, KindFwbForced, KindWriteBack:
		a["addr"] = fmt.Sprintf("0x%x", e.Arg)
	case KindFwbScan:
		a["flagged"] = e.Arg & 0xffffffff
		a["forced"] = e.Arg >> 32
	}
	if len(a) == 0 {
		return nil
	}
	return a
}

// WriteChromeTrace renders events (as returned by Tracer.Snapshot) as
// Chrome trace_event JSON. cyclesPerMicro converts timestamps to the
// microsecond axis the viewer expects; pass 1 to display raw ticks.
// ringNames, when non-nil, labels the per-ring tracks (index = ring).
func WriteChromeTrace(w io.Writer, events []Event, cyclesPerMicro float64, ringNames []string) error {
	if cyclesPerMicro <= 0 {
		cyclesPerMicro = 1
	}
	var out []chromeEvent
	for i, name := range ringNames {
		out = append(out, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   0,
			TID:   i,
			Args:  map[string]any{"name": name},
		})
	}

	// Depth of open "B" events per ring: a commit whose begin was
	// overwritten by ring wrap-around must not emit an unmatched "E",
	// and a begin whose commit fell outside the window is closed at
	// the trace's end so the viewer still shows the open span.
	depth := map[uint8]int{}
	openTx := map[uint8][]Event{}
	lastTS := 0.0
	for _, e := range events {
		ts := float64(e.TS) / cyclesPerMicro
		if ts > lastTS {
			lastTS = ts
		}
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  category(e.Kind),
			TS:   ts,
			PID:  0,
			TID:  int(e.Ring),
			Args: argsFor(e),
		}
		switch e.Kind {
		case KindTxBegin:
			ce.Name = "txn"
			ce.Phase = "B"
			depth[e.Ring]++
			openTx[e.Ring] = append(openTx[e.Ring], e)
		case KindTxCommit, KindTxAbort:
			if depth[e.Ring] == 0 {
				continue // begin lost to ring wrap-around
			}
			depth[e.Ring]--
			openTx[e.Ring] = openTx[e.Ring][:len(openTx[e.Ring])-1]
			ce.Name = "txn"
			ce.Phase = "E"
			if e.Kind == KindTxAbort {
				out = append(out, chromeEvent{
					Name: "tx-abort", Cat: "txn", Phase: "i", TS: ts,
					PID: 0, TID: int(e.Ring), Scope: "t", Args: argsFor(e),
				})
			}
		default:
			ce.Phase = "i"
			ce.Scope = "t"
		}
		out = append(out, ce)
	}
	// Close dangling begins so B/E pairs balance.
	for ring, open := range openTx {
		for range open {
			out = append(out, chromeEvent{
				Name: "txn", Cat: "txn", Phase: "E", TS: lastTS,
				PID: 0, TID: int(ring),
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// PhaseStats summarises one transaction phase across every committed
// transaction in the trace. Values are in the trace's native time unit
// (cycles for simulator traces).
type PhaseStats struct {
	Name  string
	Count int
	Mean  float64
	P50   uint64
	P95   uint64
	P99   uint64
	Max   uint64
}

// Breakdown is the per-phase transaction decomposition plus the event
// totals that give it context.
type Breakdown struct {
	Txns   int // committed transactions observed begin-to-commit
	Aborts int
	Phases []PhaseStats
	Stalls int // log-full stalls inside the window
	Wraps  int // log wrap-arounds inside the window
	Forced int // FWB forced write-backs inside the window
}

// PhaseBreakdown decomposes each committed transaction into the three
// phases the paper's pipeline implies: pre-log work (tx-begin to the
// first log append: reads and compute before the first persistent
// store), logging (first to last append: the undo+redo records racing
// the cached stores they cover), and commit (last append to tx-commit:
// with HWL this should be near-zero — commits are instant; with the
// software log it contains the flush+drain tail).
func PhaseBreakdown(events []Event) Breakdown {
	type open struct {
		begin       uint64
		firstAppend uint64
		lastAppend  uint64
		appends     int
	}
	bd := Breakdown{}
	phases := map[string][]uint64{}
	inflight := map[uint32]*open{} // ring<<16|txid
	key := func(e Event) uint32 { return uint32(e.Ring)<<16 | uint32(e.TxID) }
	for _, e := range events {
		switch e.Kind {
		case KindTxBegin:
			inflight[key(e)] = &open{begin: e.TS}
		case KindLogAppend:
			if o := inflight[key(e)]; o != nil {
				if o.appends == 0 {
					o.firstAppend = e.TS
				}
				o.lastAppend = e.TS
				o.appends++
			}
		case KindTxCommit:
			o := inflight[key(e)]
			if o == nil {
				continue
			}
			delete(inflight, key(e))
			bd.Txns++
			phases["total"] = append(phases["total"], e.TS-o.begin)
			if o.appends > 0 {
				phases["pre-log"] = append(phases["pre-log"], o.firstAppend-o.begin)
				phases["logging"] = append(phases["logging"], o.lastAppend-o.firstAppend)
				phases["commit"] = append(phases["commit"], e.TS-o.lastAppend)
			}
		case KindTxAbort:
			delete(inflight, key(e))
			bd.Aborts++
		case KindLogStall:
			bd.Stalls++
		case KindLogWrap:
			bd.Wraps++
		case KindFwbForced:
			bd.Forced++
		}
	}
	for _, name := range []string{"pre-log", "logging", "commit", "total"} {
		vals := phases[name]
		if len(vals) == 0 {
			continue
		}
		var sum uint64
		for _, v := range vals {
			sum += v
		}
		ps := PhaseStats{
			Name:  name,
			Count: len(vals),
			Mean:  float64(sum) / float64(len(vals)),
			P50:   stats.Percentile(vals, 50),
			P95:   stats.Percentile(vals, 95),
			P99:   stats.Percentile(vals, 99),
		}
		for _, v := range vals {
			if v > ps.Max {
				ps.Max = v
			}
		}
		bd.Phases = append(bd.Phases, ps)
	}
	return bd
}

// Format renders the breakdown as an aligned text table.
func (bd Breakdown) Format(w io.Writer) {
	fmt.Fprintf(w, "transactions: %d committed, %d aborted; %d log stalls, %d wrap-arounds, %d forced write-backs\n",
		bd.Txns, bd.Aborts, bd.Stalls, bd.Wraps, bd.Forced)
	if len(bd.Phases) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tcount\tmean\tp50\tp95\tp99\tmax")
	for _, p := range bd.Phases {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%d\t%d\t%d\n",
			p.Name, p.Count, p.Mean, p.P50, p.P95, p.P99, p.Max)
	}
	tw.Flush()
}
