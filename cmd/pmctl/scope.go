package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"

	"pmemlog/internal/flight"
	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/obs/pulse"
)

// declareScope is `pmctl scope`, the offline persistence-cost analyzer:
// the post-mortem counterpart of the live scope panel in `pmctl top`. It
// reads a flight-recorder dump (and, when the shard NVRAM images are
// reachable, the durable log images themselves) and reports where every
// NVRAM byte went — write amplification, the undo/redo/header/checksum
// byte split, log residency (live vs committed vs torn records and the
// recovery replay bill they imply), and the coalescible fraction measured
// from actual per-transaction line recurrence in the log:
//
//	pmctl scope /data/flight-dump.json
//	pmctl scope -dump flight-dump.json -images /data -json
//	pmctl scope -dump flight-dump.json -no-images
//
// Two evidence layers, cross-referenced when both exist:
//
//   - The dump's embedded pulse document carries the scope section the
//     live server computed over its last closed telemetry window — the
//     same rates and fractions /pulse.json served.
//   - The shard log images are ground truth for residency: every log
//     region is read exactly as recovery would read it (nvlog.Walk) and the
//     replay is priced from what is durably there, not from what the dying
//     server believed.
//
// Exit status: 0 on success, 2 on usage or input errors. Missing images
// or a dump taken before any window closed degrade the report, they do
// not fail it.
func declareScope(fs *flag.FlagSet) func(*env) int {
	in := declareDumpInput(fs)
	return func(e *env) int {
		d, open, ok := in.load(e)
		if !ok {
			return 2
		}
		rep := &Report{Dump: *in.path, Reason: d.Reason, Mode: d.Mode, Shards: d.Shards}
		if len(d.Pulse) > 0 {
			var doc pulse.Doc
			if err := json.Unmarshal(d.Pulse, &doc); err != nil {
				e.errorf("%s: pulse window: %v", *in.path, err)
				return 2
			}
			if doc.Version != pulse.DocVersion {
				e.errorf("%s: pulse window version %d, pmctl scope speaks %d", *in.path, doc.Version, pulse.DocVersion)
				return 2
			}
			rep.Live = &doc.Scope
		}
		if open != nil {
			for _, st := range d.ShardStates {
				sr, err := scanShard(&st, open)
				if err != nil {
					rep.ImageErrors = append(rep.ImageErrors,
						fmt.Sprintf("shard %d: %v", st.Shard, err))
					continue
				}
				rep.Residency = append(rep.Residency, *sr)
			}
			sort.Slice(rep.Residency, func(i, j int) bool {
				return rep.Residency[i].Shard < rep.Residency[j].Shard
			})
		}

		if *in.json {
			return e.writeJSON(rep, " ")
		}
		printReport(e.out, rep)
		return 0
	}
}

// Report is the full analysis document (-json emits it verbatim).
type Report struct {
	Dump   string `json:"dump"`
	Reason string `json:"reason"`
	Mode   string `json:"mode,omitempty"`
	Shards int    `json:"shards"`

	// Live is the scope section of the dump's last pulse window — the
	// live collector's last word; absent when no window had closed.
	Live *pulse.ScopeDoc `json:"live,omitempty"`

	// Residency is the ground-truth log-image scan, one entry per shard
	// whose image was reachable.
	Residency   []ShardResidency `json:"residency,omitempty"`
	ImageErrors []string         `json:"image_errors,omitempty"`
}

// ShardResidency prices one shard's durable log: what recovery would
// have to replay, and what the bytes on NVRAM were spent on.
type ShardResidency struct {
	Shard int `json:"shard"`

	// Live records by kind, across every log region recovery would read
	// (a grown log's successor, not the region it abandoned), torn tails
	// excluded exactly as recovery excludes them.
	LiveRecords   uint64 `json:"live_records"`
	UpdateRecords uint64 `json:"update_records"`
	HeaderRecords uint64 `json:"header_records"`
	CommitRecords uint64 `json:"commit_records"`

	// Transaction residency: committed transactions are redone on
	// recovery; torn ones (records but no commit marker) are undone.
	CommittedTxns int `json:"committed_txns"`
	TornTxns      int `json:"torn_txns"`

	// ReplayEstRecords is the recovery bill: every live record must be
	// read, and every update record replays one word (redo for committed
	// transactions, undo for torn ones).
	ReplayEstRecords uint64 `json:"replay_est_records"`
	ReplayEstBytes   uint64 `json:"replay_est_bytes"`

	// Byte split of the live log footprint, per the record layout: an
	// update record carries an 8-byte undo word, an 8-byte redo word, and
	// a 2-byte checksum; header and commit records are all framing.
	LiveBytes     uint64 `json:"live_bytes"`
	UndoBytes     uint64 `json:"undo_bytes"`
	RedoBytes     uint64 `json:"redo_bytes"`
	HeaderBytes   uint64 `json:"header_bytes"`
	ChecksumBytes uint64 `json:"checksum_bytes"`

	// LogWriteAmp is the live-log amplification: durable log bytes per
	// payload byte (one word per update record). Write-back traffic is
	// not visible in a post-crash image, so this is the logging term of
	// the live panel's write amp, not the whole.
	LogWriteAmp float64 `json:"log_write_amp"`

	// CoalescibleFraction measured from the log itself: the share of
	// update records whose (transaction, cache line) pair already
	// appeared earlier in the same transaction — stores a line-granular
	// coalescing buffer would have merged.
	CoalescibleFraction float64 `json:"coalescible_fraction"`

	Occupancy float64 `json:"occupancy"`
	Pass      uint64  `json:"pass"`
}

// scanShard reads one shard's image and prices its durable log.
func scanShard(st *flight.ShardState, open flight.ImageOpener) (*ShardResidency, error) {
	log, err := st.ReadLog(open)
	if err != nil {
		return nil, err
	}

	sr := &ShardResidency{
		Shard:     st.Shard,
		Occupancy: st.Occupancy(),
		Pass:      st.Pass(),
	}
	// Line recurrence is keyed by transaction, not by region:
	// coalescibility is a property of the transaction.
	type txnLine struct {
		txid uint16
		line uint64
	}
	lines := map[txnLine]bool{}
	var coalescible uint64

	for _, r := range log.Regions {
		slot := r.Meta.SlotSize()
		for _, e := range r.Entries {
			sr.LiveRecords++
			sr.LiveBytes += slot
			switch e.Kind {
			case nvlog.KindUpdate:
				sr.UpdateRecords++
				sr.UndoBytes += nvlog.RecUndoBytes
				sr.RedoBytes += nvlog.RecRedoBytes
				sr.ChecksumBytes += nvlog.RecChecksumBytes
				sr.HeaderBytes += slot - nvlog.RecUndoBytes - nvlog.RecRedoBytes - nvlog.RecChecksumBytes
				key := txnLine{e.TxID, uint64(e.Addr.Line())}
				if lines[key] {
					coalescible++
				} else {
					lines[key] = true
				}
			case nvlog.KindCommit:
				sr.CommitRecords++
				sr.ChecksumBytes += nvlog.RecChecksumBytes
				sr.HeaderBytes += slot - nvlog.RecChecksumBytes
			default:
				sr.HeaderRecords++
				sr.ChecksumBytes += nvlog.RecChecksumBytes
				sr.HeaderBytes += slot - nvlog.RecChecksumBytes
			}
		}
	}

	for txid := range log.Records {
		if log.Commits[txid] {
			sr.CommittedTxns++
		} else {
			sr.TornTxns++
		}
	}
	// Recovery reads every live record and writes one word per update.
	sr.ReplayEstRecords = sr.LiveRecords
	sr.ReplayEstBytes = sr.LiveBytes + sr.UpdateRecords*mem.WordSize
	if payload := sr.UpdateRecords * mem.WordSize; payload > 0 {
		sr.LogWriteAmp = float64(sr.LiveBytes) / float64(payload)
	}
	if sr.UpdateRecords > 0 {
		sr.CoalescibleFraction = float64(coalescible) / float64(sr.UpdateRecords)
	}
	return sr, nil
}

func printReport(out io.Writer, r *Report) {
	fmt.Fprintf(out, "pmscope %s  reason=%s  mode=%s  shards=%d\n",
		r.Dump, r.Reason, r.Mode, r.Shards)

	if r.Live != nil {
		fmt.Fprintf(out, "\nlive scope (last pulse window before the dump):\n")
		renderScope(out, r.Live, 80)
	} else {
		fmt.Fprintf(out, "\nthe dump has no pulse window (none had closed)\n")
	}

	for i := range r.Residency {
		sr := &r.Residency[i]
		fmt.Fprintf(out, "\nshard %d log residency (scanned from the durable image):\n", sr.Shard)
		fmt.Fprintf(out, "  live records: %d (%d update, %d header, %d commit)  occupancy %.0f%%  pass %d\n",
			sr.LiveRecords, sr.UpdateRecords, sr.HeaderRecords, sr.CommitRecords,
			100*sr.Occupancy, sr.Pass)
		fmt.Fprintf(out, "  transactions: %d committed (redo on recovery), %d torn (undo on recovery)\n",
			sr.CommittedTxns, sr.TornTxns)
		fmt.Fprintf(out, "  live bytes: %d = undo %d + redo %d + header %d + checksum %d\n",
			sr.LiveBytes, sr.UndoBytes, sr.RedoBytes, sr.HeaderBytes, sr.ChecksumBytes)
		fmt.Fprintf(out, "  log write amp: %.2fx over %d payload bytes  coalescible %.1f%%\n",
			sr.LogWriteAmp, sr.UpdateRecords*mem.WordSize, 100*sr.CoalescibleFraction)
		fmt.Fprintf(out, "  recovery bill: read %d records, replay ~%d bytes\n",
			sr.ReplayEstRecords, sr.ReplayEstBytes)
	}
	for _, e := range r.ImageErrors {
		fmt.Fprintf(out, "\nimage scan skipped: %s\n", e)
	}
}
