package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"pmemlog/internal/flight"
)

// declareDoctor is `pmctl doctor`, the post-mortem forensics for
// pmserver's flight recorder: it loads a black-box dump (written on
// panic, SIGTERM, or an explicit WriteFlightDump), prints the stage marks
// and machine timeline of every request in flight when the process died, and
// cross-checks each one against the shard's durable NVRAM log image —
// classifying its transaction committed / torn / unlogged in the
// paper's recovery vocabulary and verifying the ruling against what a
// real recovery replay concludes from the same image:
//
//	pmctl doctor /data/flight-dump.json
//	pmctl doctor -dump flight-dump.json -images /data -strict
//	pmctl doctor -dump flight-dump.json -span 4294967297 -json
//
// Exit status: 0 clean (torn-but-correctly-rolled-back crashes
// included), 1 under -strict when an acked write was lost or a verdict
// disagrees with the recovery replay, 2 usage or input errors.
func declareDoctor(fs *flag.FlagSet) func(*env) int {
	var (
		in     = declareDumpInput(fs)
		spanID = fs.Uint64("span", 0, "report only this wire span ID")
		strict = fs.Bool("strict", false, "exit 1 when any verdict disagrees with the recovery replay")
	)
	return func(e *env) int {
		d, open, ok := in.load(e)
		if !ok {
			return 2
		}
		if *spanID != 0 {
			filterSpan(d, *spanID)
		}

		var an *flight.Analysis
		if open != nil && (len(d.InFlight) > 0 || len(d.Slow) > 0) {
			var err error
			if an, err = flight.Analyze(d, open); err != nil {
				e.errorf("analysis skipped: %v", err)
			}
		}

		if *in.json {
			doc := struct {
				Dump     *flight.Dump     `json:"dump"`
				Analysis *flight.Analysis `json:"analysis,omitempty"`
			}{d, an}
			if code := e.writeJSON(doc, " "); code != 0 {
				return code
			}
		} else {
			printDump(e.out, d)
			printAnalysis(e.out, d, an)
		}

		// Strict mode separates crash artifacts from broken promises: a torn
		// or unlogged in-flight request that recovery correctly rolled back is
		// normal crash behavior (exit 0); a lost acked write or a verdict that
		// disagrees with the recovery replay is a real failure (exit 1).
		code := 0
		if *strict && an != nil {
			if !an.Agreement() {
				e.errorf("verdicts disagree with the recovery replay")
				code = 1
			}
			if n := an.AckedLoss(); n > 0 {
				e.errorf("%d acked write(s) lost by recovery", n)
				code = 1
			}
		}
		return code
	}
}

// filterSpan narrows the dump to one span: its snapshot(s) and the
// trace events carrying its tag.
func filterSpan(d *flight.Dump, id uint64) {
	keep := func(in []flight.SpanSnapshot) []flight.SpanSnapshot {
		var out []flight.SpanSnapshot
		for _, s := range in {
			if s.ID == id {
				out = append(out, s)
			}
		}
		return out
	}
	d.InFlight = keep(d.InFlight)
	d.Slow = keep(d.Slow)
	d.Events = d.Timeline(id)
}

func printDump(out io.Writer, d *flight.Dump) {
	fmt.Fprintf(out, "flight dump v%d  reason=%s  captured=%s  uptime=%s\n",
		d.Version, d.Reason,
		time.Unix(0, d.CapturedAtNS).UTC().Format(time.RFC3339),
		time.Duration(d.UptimeNS))
	fmt.Fprintf(out, "server %s  mode=%s  shards=%d\n", d.Addr, d.Mode, d.Shards)

	if len(d.RingStats) > 0 {
		fmt.Fprintf(out, "\ntrace rings:\n")
		for i, rs := range d.RingStats {
			name := fmt.Sprintf("ring %d", i)
			if i < len(d.RingNames) {
				name = d.RingNames[i]
			}
			fmt.Fprintf(out, "  %-24s %8d emitted  %6d dropped\n", name, rs.Emitted, rs.Dropped)
		}
	}

	if len(d.ShardStates) > 0 {
		fmt.Fprintf(out, "\nshards:\n")
		for _, st := range d.ShardStates {
			fmt.Fprintf(out, "  shard %d: queue %d/%d  log head=%d tail=%d cap=%d  pass=%d occupancy=%.0f%%\n",
				st.Shard, st.QueueLen, st.QueueCap,
				st.LogHead, st.LogTail, st.LogCap, st.Pass(), 100*st.Occupancy())
		}
	}

	fmt.Fprintf(out, "\nspans: %d in flight, %d slow captured, %d shed (table full)\n",
		len(d.InFlight), d.SlowCaptured, d.SpanDrops)
	if len(d.InFlight) > 0 {
		fmt.Fprintf(out, "\nin-flight at capture:\n")
		for i := range d.InFlight {
			printSpan(out, d, &d.InFlight[i])
		}
	}
	if len(d.Slow) > 0 {
		fmt.Fprintf(out, "\nslow requests (tail samples):\n")
		for i := range d.Slow {
			printSpan(out, d, &d.Slow[i])
		}
	}
}

// printSpan renders one span's stage marks, txn attribution, and the
// machine timeline its tag selects from the shard's trace rings.
func printSpan(out io.Writer, d *flight.Dump, sp *flight.SpanSnapshot) {
	fmt.Fprintf(out, "  span %d (tag %08x)  op=%s  shard=%s  status=%s\n",
		sp.ID, sp.Tag(), flight.OpName(sp.Op), shardName(sp.Shard), flight.StatusName(sp.Status))
	fmt.Fprintf(out, "    stages: recv=%s", time.Duration(sp.RecvNS))
	for _, st := range []struct {
		name string
		ns   int64
	}{{"enqueue", sp.EnqueueNS}, {"apply", sp.ApplyNS}, {"fwb", sp.FwbNS},
		{"durable", sp.DurableNS}, {"ack", sp.AckNS}} {
		if st.ns == 0 {
			fmt.Fprintf(out, "  %s=-", st.name)
			continue
		}
		fmt.Fprintf(out, "  %s=+%s", st.name, time.Duration(st.ns-sp.RecvNS))
	}
	fmt.Fprintln(out)
	if sp.TxID != 0 {
		fmt.Fprintf(out, "    txn %d: begin@%d commit@%d cycles, log records [%d,%d)\n",
			sp.TxID, sp.TxBeginCyc, sp.TxCommitCyc, sp.LogFirst, sp.LogLast)
	}
	printTimeline(out, d, d.Timeline(sp.ID))
}

func printTimeline(out io.Writer, d *flight.Dump, tl []flight.Event) {
	if len(tl) == 0 {
		return
	}
	fmt.Fprintf(out, "    machine timeline (cycles):\n")
	for _, e := range tl {
		ring := fmt.Sprintf("ring %d", e.Ring)
		if e.Ring >= 0 && e.Ring < len(d.RingNames) {
			ring = d.RingNames[e.Ring]
		}
		fmt.Fprintf(out, "      %12d  %-16s %-18s txid=%d arg=%d\n", e.TS, ring, e.Kind, e.TxID, e.Arg)
	}
}

func printAnalysis(out io.Writer, d *flight.Dump, an *flight.Analysis) {
	if an == nil {
		return
	}
	fmt.Fprintf(out, "\nanalysis (dump vs durable log images):\n")
	if an.InFlightUnattributed > 0 {
		fmt.Fprintf(out, "  %d in-flight span(s) had no attributable transaction (died before a shard/txn, or no image)\n",
			an.InFlightUnattributed)
	}
	for _, sa := range an.Shards {
		fmt.Fprintf(out, "  shard %d: recovery scanned %d entries, %d committed (redo), %d uncommitted (undo)\n",
			sa.Shard, sa.Report.EntriesScanned, len(sa.Report.Committed), len(sa.Report.Uncommitted))
		for _, f := range sa.Findings {
			agree := "agrees with replay"
			if !f.Agrees {
				agree = "DISAGREES with replay"
			}
			acked := ""
			if f.Acked {
				acked = ", acked"
				if f.AckedLost {
					acked = ", ACKED WRITE LOST"
				}
			}
			fmt.Fprintf(out, "    span %d txn %d: %s (%d durable records, commit=%v%s) — %s\n",
				f.Span.ID, f.Span.TxID, f.Verdict, f.Records, f.HasCommit, acked, agree)
		}
	}
	if an.Agreement() {
		fmt.Fprintf(out, "  verdicts agree with the recovery replay\n")
	} else {
		fmt.Fprintf(out, "  VERDICT MISMATCH: flight-recorder view and recovery replay differ\n")
	}
	if n := an.AckedLoss(); n > 0 {
		fmt.Fprintf(out, "  ACKED WRITE LOSS: %d acknowledged write(s) did not survive recovery\n", n)
	}
	if d.Chaos != nil {
		fmt.Fprintf(out, "  %s\n", d.Chaos)
	}
}

func shardName(s int) string {
	if s < 0 {
		return "unrouted"
	}
	return fmt.Sprintf("%d", s)
}
