package flight

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/recovery"
)

// Verdict classifies what a crash did to one in-flight transaction,
// in the paper's recovery vocabulary.
type Verdict string

const (
	// VerdictCommitted: a durable commit record exists, so recovery
	// redoes the transaction — the ack (sent or not) is honored.
	VerdictCommitted Verdict = "committed"
	// VerdictTorn: log records exist but no commit record — the
	// transaction died mid-pipeline and recovery undoes it from the
	// undo images (the paper's uncommitted-rollback path).
	VerdictTorn Verdict = "torn"
	// VerdictUnlogged: no durable log record mentions the transaction —
	// it died before any append left the log write buffer, so recovery
	// never sees it and no data write-back can have escaped either
	// (logging is ordered before data by construction).
	VerdictUnlogged Verdict = "unlogged"
)

// Finding is the doctor's ruling on one span (in-flight or acked).
type Finding struct {
	Span    SpanSnapshot `json:"span"`
	Verdict Verdict      `json:"verdict"`

	// Log evidence backing the verdict.
	Records   int  `json:"records"`    // durable log records for the txid
	HasCommit bool `json:"has_commit"` // durable commit record present

	// Recovery cross-check: what a real recovery pass over the same
	// image concluded about this txid. Agrees is the doctor's
	// self-test — the flight-recorder view and the replay must match.
	RecoveryCommitted   bool `json:"recovery_committed"`
	RecoveryUncommitted bool `json:"recovery_uncommitted"`
	Agrees              bool `json:"agrees"`

	// Acked marks a mutating span whose OK response went out: the server
	// promised durability, so recovery rolling its transaction back is a
	// correctness violation, not a crash artifact.
	Acked bool `json:"acked,omitempty"`
	// AckedLost is the fatal ruling: an acked span whose transaction
	// recovery undid (or whose durable records carry no commit marker).
	// A truncated acked span — zero records, no commit — is NOT lost:
	// truncation only retires transactions after their data write-backs
	// completed, so the log legitimately forgets them.
	AckedLost bool `json:"acked_lost,omitempty"`

	Timeline []Event `json:"timeline,omitempty"`
}

// ShardAnalysis is one shard's cross-checked recovery view.
type ShardAnalysis struct {
	Shard    int             `json:"shard"`
	Report   recovery.Report `json:"report"`
	Findings []Finding       `json:"findings"`
}

// Analysis is the doctor's full ruling over a dump.
type Analysis struct {
	Shards []ShardAnalysis `json:"shards"`

	// InFlightUnattributed counts in-flight spans that could not be
	// checked against a log image (no txid recorded yet, or the shard's
	// image was not provided).
	InFlightUnattributed int `json:"in_flight_unattributed"`
}

// Findings flattens every shard's findings, span timeline order.
func (a *Analysis) Findings() []Finding {
	var out []Finding
	for _, s := range a.Shards {
		out = append(out, s.Findings...)
	}
	return out
}

// Agreement reports whether every finding's verdict matched the
// recovery replay (vacuously true with no findings).
func (a *Analysis) Agreement() bool {
	for _, s := range a.Shards {
		for _, f := range s.Findings {
			if !f.Agrees {
				return false
			}
		}
	}
	return true
}

// AckedLoss counts findings where an acknowledged write did not survive
// recovery — the one verdict class that must exit pmdoctor -strict
// non-zero (a torn-but-rolled-back in-flight request is normal crash
// behavior; a lost ack is a broken durability promise).
func (a *Analysis) AckedLoss() int {
	n := 0
	for _, s := range a.Shards {
		for _, f := range s.Findings {
			if f.AckedLost {
				n++
			}
		}
	}
	return n
}

// ImageOpener maps a shard index to its NVRAM image. Analyze reads the
// image fully into memory; the on-disk file is never mutated even
// though the recovery pass scrubs its working copy's log metadata.
type ImageOpener func(shard int) (io.ReadCloser, error)

// ImageOpener resolves a shard index to its NVRAM image file, for a
// dump loaded from dumpPath. Dumps routinely travel away from the
// machine that wrote them, so the recorded file name is looked for in
// imagesDir (the tools' -images override, when non-empty) first, then
// at the recorded path as written (absolute paths from the dying
// process), then next to the dump. A shard the dump has no record of
// falls back to the server's shard-NNN.img naming.
func (d *Dump) ImageOpener(dumpPath, imagesDir string) ImageOpener {
	return func(shard int) (io.ReadCloser, error) {
		var recorded string
		for _, st := range d.ShardStates {
			if st.Shard == shard {
				recorded = st.ImagePath
				break
			}
		}
		base := filepath.Base(recorded)
		if recorded == "" {
			base = fmt.Sprintf("shard-%03d.img", shard)
		}
		var candidates []string
		if imagesDir != "" {
			candidates = append(candidates, filepath.Join(imagesDir, base))
		}
		if recorded != "" {
			candidates = append(candidates, recorded)
		}
		candidates = append(candidates, filepath.Join(filepath.Dir(dumpPath), base))
		var firstErr error
		for _, c := range candidates {
			f, err := os.Open(c)
			if err == nil {
				return f, nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return nil, firstErr
	}
}

// Analyze cross-checks a dump against the shards' NVRAM log images:
// for every in-flight span with an attributed transaction — and every
// acknowledged span the slow ring retained — it scans the shard's
// durable log records, rules the transaction committed / torn /
// unlogged, and verifies the ruling against what recovery.RecoverAll
// actually replays from the same image. Acked mutating spans whose
// transaction recovery undid are additionally ruled AckedLost: a
// broken durability promise.
//
// Limitation: txids are the low 16 bits of a run-unique handle, so a
// slow-ring span from more than 65536 transactions ago can collide
// with a live transaction and misattribute its evidence. Campaign runs
// stay far below that; long-lived servers should read AckedLost only
// for recent spans.
func Analyze(d *Dump, open ImageOpener) (*Analysis, error) {
	an := &Analysis{}

	// Group the spans needing a ruling by shard. In-flight spans first;
	// then the slow ring's completed spans, which carry the ack
	// evidence (an acked span that recovery rolls back is the one
	// failure no crash is allowed to produce).
	byShard := map[int][]SpanSnapshot{}
	seen := map[uint64]bool{}
	for _, sp := range d.InFlight {
		if sp.Shard < 0 || sp.TxID == 0 {
			// Died before reaching a shard or before its txn began:
			// nothing durable can exist, but without a txid there is no
			// log evidence to rule on either.
			an.InFlightUnattributed++
			continue
		}
		seen[sp.ID] = true
		byShard[sp.Shard] = append(byShard[sp.Shard], sp)
	}
	for _, sp := range d.Slow {
		if sp.Shard < 0 || sp.TxID == 0 || seen[sp.ID] {
			// Reads and unrouted spans carry no durability promise.
			continue
		}
		seen[sp.ID] = true
		byShard[sp.Shard] = append(byShard[sp.Shard], sp)
	}

	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)

	for _, shardIdx := range shards {
		spans := byShard[shardIdx]
		var st *ShardState
		for i := range d.ShardStates {
			if d.ShardStates[i].Shard == shardIdx {
				st = &d.ShardStates[i]
				break
			}
		}
		if st == nil || len(st.LogBases) == 0 {
			an.InFlightUnattributed += len(spans)
			continue
		}
		rc, err := open(shardIdx)
		if err != nil {
			return nil, fmt.Errorf("flight: shard %d image: %w", shardIdx, err)
		}
		img, err := mem.ReadPhysical(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: shard %d image: %w", shardIdx, err)
		}

		bases := make([]mem.Addr, len(st.LogBases))
		for i, b := range st.LogBases {
			bases[i] = mem.Addr(b)
		}

		// Scan the durable records FIRST: the recovery pass below undoes
		// uncommitted data and scrubs its working copy's log metadata,
		// so the evidence must be collected before replaying.
		records, commits, err := scanTxns(img, bases)
		if err != nil {
			return nil, fmt.Errorf("flight: shard %d log scan: %w", shardIdx, err)
		}
		rep, err := recovery.RecoverAll(img, bases)
		if err != nil {
			return nil, fmt.Errorf("flight: shard %d recovery: %w", shardIdx, err)
		}
		committed := toSet(rep.Committed)
		uncommitted := toSet(rep.Uncommitted)

		sa := ShardAnalysis{Shard: shardIdx, Report: rep}
		for _, sp := range spans {
			f := Finding{
				Span:      sp,
				Records:   records[sp.TxID],
				HasCommit: commits[sp.TxID],
				Timeline:  d.Timeline(sp.ID),
			}
			switch {
			case f.HasCommit:
				f.Verdict = VerdictCommitted
			case f.Records > 0:
				f.Verdict = VerdictTorn
			default:
				f.Verdict = VerdictUnlogged
			}
			f.RecoveryCommitted = committed[sp.TxID]
			f.RecoveryUncommitted = uncommitted[sp.TxID]
			// The flight view agrees with the replay when committed spans
			// were redone, torn spans were rolled back, and unlogged
			// spans were invisible to recovery.
			switch f.Verdict {
			case VerdictCommitted:
				f.Agrees = f.RecoveryCommitted && !f.RecoveryUncommitted
			case VerdictTorn:
				f.Agrees = f.RecoveryUncommitted && !f.RecoveryCommitted
			case VerdictUnlogged:
				f.Agrees = !f.RecoveryCommitted && !f.RecoveryUncommitted
			}
			// An acked mutating span must survive: rollback of its txn
			// (or durable records with no commit marker) is a lost ack.
			// Zero records with no commit is truncation — the log
			// legitimately forgot a fully written-back transaction.
			f.Acked = sp.Status == int(statusOK) && mutatingOp(sp.Op)
			f.AckedLost = f.Acked &&
				(f.RecoveryUncommitted || (f.Records > 0 && !f.HasCommit))
			sa.Findings = append(sa.Findings, f)
		}
		sort.Slice(sa.Findings, func(i, j int) bool {
			return sa.Findings[i].Span.ID < sa.Findings[j].Span.ID
		})
		an.Shards = append(an.Shards, sa)
	}
	return an, nil
}

// Wire constants mirrored from internal/server/protocol.go (server
// imports flight, so flight cannot import them back; the wire format is
// frozen and these bytes are part of the dump contract).
const (
	statusOK  = byte(0x00)
	opPut     = byte(0x02)
	opDel     = byte(0x03)
	opTxnWire = byte(0x04)
)

// mutatingOp reports whether the opcode carries a durability promise
// when acked (PUT, DEL, and the atomic TXN batch; reads promise nothing).
func mutatingOp(op uint8) bool {
	return op == opPut || op == opDel || op == opTxnWire
}

// scanTxns counts the durable log records and commit markers per txid
// across every log region, torn records excluded (nvlog.Scan stops at
// the first torn bit — exactly what recovery will trust).
func scanTxns(img *mem.Physical, bases []mem.Addr) (records map[uint16]int, commits map[uint16]bool, err error) {
	records = map[uint16]int{}
	commits = map[uint16]bool{}
	for _, base := range bases {
		meta, err := nvlog.ReadMeta(img, base)
		if err != nil {
			return nil, nil, err
		}
		entries, _, err := nvlog.Scan(img, base, meta)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range entries {
			records[e.TxID]++
			if e.Kind == nvlog.KindCommit {
				commits[e.TxID] = true
			}
		}
	}
	return records, commits, nil
}

func toSet(ids []uint16) map[uint16]bool {
	m := make(map[uint16]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}
