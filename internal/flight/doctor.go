package flight

import (
	"errors"
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
// recovery — the one verdict class that must exit pmctl doctor -strict
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
		if st := d.shardState(shard); st != nil {
			recorded = st.ImagePath
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

// shardState finds the dump's record of one shard (nil if it has none).
func (d *Dump) shardState(shard int) *ShardState {
	for i := range d.ShardStates {
		if d.ShardStates[i].Shard == shard {
			return &d.ShardStates[i]
		}
	}
	return nil
}

// DurableLog is what a shard's NVRAM image durably holds of its log, read
// exactly as recovery reads it: nvlog.Walk from the bases the dump
// recorded. The doctor's verdicts and the scope residency bill are both
// computed from it.
type DurableLog struct {
	Image   *mem.Physical
	Bases   []mem.Addr
	Regions []nvlog.Region
	// Records counts the live records per transaction ID (torn tails
	// excluded, as recovery excludes them); Commits marks the ones with a
	// durable commit record.
	Records map[uint16]int
	Commits map[uint16]bool
}

// ReadLog loads the shard's image through open and walks its log.
func (st *ShardState) ReadLog(open ImageOpener) (*DurableLog, error) {
	if len(st.LogBases) == 0 {
		return nil, errors.New("no log regions recorded")
	}
	rc, err := open(st.Shard)
	if err != nil {
		return nil, err
	}
	img, err := mem.ReadPhysical(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	log := &DurableLog{Image: img, Records: map[uint16]int{}, Commits: map[uint16]bool{}}
	for _, b := range st.LogBases {
		log.Bases = append(log.Bases, mem.Addr(b))
	}
	if log.Regions, err = nvlog.Walk(img, log.Bases); err != nil {
		return nil, err
	}
	for _, r := range log.Regions {
		for _, e := range r.Entries {
			log.Records[e.TxID]++
			if e.Kind == nvlog.KindCommit {
				log.Commits[e.TxID] = true
			}
		}
	}
	return log, nil
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
		st := d.shardState(shardIdx)
		if st == nil || len(st.LogBases) == 0 {
			an.InFlightUnattributed += len(spans)
			continue
		}
		// Read the durable records FIRST: the recovery pass below undoes
		// uncommitted data and scrubs its working copy's log metadata,
		// so the evidence must be collected before replaying.
		log, err := st.ReadLog(open)
		if err != nil {
			return nil, fmt.Errorf("flight: shard %d image: %w", shardIdx, err)
		}
		rep, err := recovery.RecoverAll(log.Image, log.Bases)
		if err != nil {
			return nil, fmt.Errorf("flight: shard %d recovery: %w", shardIdx, err)
		}
		committed := toSet(rep.Committed)
		uncommitted := toSet(rep.Uncommitted)

		sa := ShardAnalysis{Shard: shardIdx, Report: rep}
		for _, sp := range spans {
			f := Finding{
				Span:      sp,
				Records:   log.Records[sp.TxID],
				HasCommit: log.Commits[sp.TxID],
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
			f.Acked = sp.Status == statusOK && mutatingOp(sp.Op)
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

// Wire opcodes and statuses mirrored from internal/server/protocol.go
// (server imports flight, so flight cannot import them back; the wire
// format is frozen and these bytes are part of the dump contract). This
// is the one name table: the server's metric labels, the pulse
// document's exemplars and the doctor's span lines all render through
// OpName and StatusName.
const (
	statusOK  = 0x00
	opPut     = 0x02
	opDel     = 0x03
	opTxnWire = 0x04
)

var (
	opNames     = [...]string{0x01: "get", opPut: "put", opDel: "del", opTxnWire: "txn", 0x05: "stats", 0x06: "metrics"}
	statusNames = [...]string{statusOK: "ok", 0x01: "not-found", 0x02: "retry", 0x03: "err"}
)

// OpName is the display name of a wire opcode.
func OpName(op uint8) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%02x", op)
}

// StatusName is the display name of a span's response status; -1 marks
// a span that never got one.
func StatusName(status int) string {
	switch {
	case status == -1:
		return "unanswered"
	case status >= 0 && status < len(statusNames):
		return statusNames[status]
	}
	return fmt.Sprintf("status%02x", status)
}

// mutatingOp reports whether the opcode carries a durability promise
// when acked (PUT, DEL, and the atomic TXN batch; reads promise nothing).
func mutatingOp(op uint8) bool {
	return op == opPut || op == opDel || op == opTxnWire
}

func toSet(ids []uint16) map[uint16]bool {
	m := make(map[uint16]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}
