package sim

import (
	"sort"

	"pmemlog/internal/mem"
	"pmemlog/internal/nvlog"
	"pmemlog/internal/recovery"
)

// writeRec is one word-granular transactional write.
type writeRec struct {
	addr mem.Addr
	val  mem.Word
}

// txRecord tracks one transaction for crash-consistency verification.
type txRecord struct {
	txID   uint16
	writes []writeRec
	// commitIssued is the cycle at which TxCommit returned to the program;
	// commitDurable is a bound on when the commit record reached NVRAM
	// (^0 when the design gives no durable-commit-on-return guarantee,
	// i.e. the paper's no-force instant commit).
	commitIssued  uint64
	commitDurable uint64
	committed     bool
	// durableAllAt is the earliest cycle at which ALL the transaction's
	// data was provably durable in NVRAM (set when a software GC flushed
	// everything with a completed fence); ^0 if never.
	durableAllAt uint64
	// Hardware truncation evidence: the engine truncated this committed
	// transaction's records from sub-log truncLogIdx's region at truncBase,
	// the last at sequence truncLastSeq. If the recovered durable head of
	// that region passed truncLastSeq, the truncation's durability evidence
	// reached NVRAM before the crash.
	truncated    bool
	truncLogIdx  int
	truncBase    mem.Addr
	truncLastSeq uint64
}

// oracle tracks the information crash tests need: the population baseline
// plus a record of every transaction's writes and commit times.
type oracle struct {
	committed map[mem.Addr]mem.Word // population + committed state (live view)
	txs       []*txRecord
}

func newOracle() *oracle {
	return &oracle{committed: make(map[mem.Addr]mem.Word)}
}

func (o *oracle) commitWord(addr mem.Addr, w mem.Word) { o.committed[addr] = w }

// beginTx opens a record for a starting transaction.
func (o *oracle) beginTx(txID uint16) *txRecord {
	t := &txRecord{txID: txID, commitDurable: ^uint64(0), durableAllAt: ^uint64(0)}
	o.txs = append(o.txs, t)
	return t
}

// commitTx finalizes a record and folds its writes into the live view.
func (o *oracle) commitTx(t *txRecord, issued, durable uint64) {
	t.committed = true
	t.commitIssued = issued
	t.commitDurable = durable
	for _, w := range t.writes {
		o.committed[w.addr] = w.val
	}
}

// VerifyRecovery checks a post-crash, post-recovery NVRAM image against the
// oracle. rep is the recovery report; crashAt the crash cycle. It returns a
// list of human-readable violations (empty = consistent).
//
// Checks performed:
//
//  1. Validity: every transaction recovery marked committed was actually
//     issued a commit by the program (no phantom commits).
//  2. Durability: every transaction whose commit record was provably
//     durable before the crash must be recovered as committed.
//  3. Atomicity + integrity: replaying the baseline plus exactly the
//     recovered-committed transactions (in commit order) must reproduce
//     the image's contents word for word.
func (s *System) VerifyRecovery(rep recovery.Report, crashAt uint64) []string {
	o := s.oracle
	if o == nil {
		return []string{"oracle not enabled (set Config.TrackOracle)"}
	}
	var bad []string

	recovered := map[uint16]bool{}
	for _, id := range rep.Committed {
		recovered[id] = true
	}
	rolledBack := map[uint16]bool{}
	for _, id := range rep.Uncommitted {
		rolledBack[id] = true
	}
	var live []mem.Addr // the base of the region recovery resumed each log in
	for _, base := range s.LogBases() {
		r, _ := nvlog.Resolve(s.NVRAMImage(), base) // recovery walked it already
		live = append(live, r.Base)
	}
	issued := map[uint16]bool{}
	for _, t := range o.txs {
		if t.committed {
			issued[t.txID] = true
		}
	}
	for id := range recovered {
		if !issued[id] {
			bad = append(bad, "phantom commit: tx "+itoa(uint64(id)))
		}
	}

	// included: the transaction's effects must appear in the recovered
	// image — recovery saw its commit record; or a software GC provably
	// flushed its data before the crash; or the engine truncated its
	// records AND the durable head's advance past them survived the crash
	// (the head write is ordered after the enabling data write-backs, so
	// head coverage proves data durability).
	included := func(t *txRecord) bool {
		if !t.committed || rolledBack[t.txID] {
			return false
		}
		if recovered[t.txID] || t.durableAllAt <= crashAt {
			return true
		}
		if !t.truncated || t.truncLogIdx >= min(len(rep.Heads), len(live)) {
			return false
		}
		// A durable log_grow AFTER the truncation proves it (the forward
		// write is ordered behind the truncation's data write-backs);
		// within the same region, durable-head coverage proves it. Grow
		// regions are bump-allocated upward, so a later region has a
		// higher base. (Report.Hops cannot tell: every grow rewrites the
		// original region's forward pointer, so recovery follows one hop
		// however many grows there were.)
		base := live[t.truncLogIdx]
		return base > t.truncBase || base == t.truncBase && t.truncLastSeq < rep.Heads[t.truncLogIdx]
	}
	for _, t := range o.txs {
		if t.committed && t.commitDurable <= crashAt && !included(t) {
			bad = append(bad, "durability violation: tx "+itoa(uint64(t.txID))+
				" durable at "+itoa(t.commitDurable)+" but rolled back")
		}
	}

	// Replay: baseline population + exactly the recovered-committed
	// transactions, applied in commit order, must match the image on every
	// word any transaction or population write ever touched.
	touched := make(map[mem.Addr]bool, len(s.population))
	for a := range s.population {
		touched[a] = true
	}
	for _, t := range o.txs {
		for _, w := range t.writes {
			touched[w.addr] = true
		}
	}
	expected := make(map[mem.Addr]mem.Word, len(touched))
	for a, w := range s.population {
		expected[a] = w
	}
	ordered := make([]*txRecord, 0, len(o.txs))
	for _, t := range o.txs {
		if included(t) {
			ordered = append(ordered, t)
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].commitIssued < ordered[j].commitIssued
	})
	for _, t := range ordered {
		for _, w := range t.writes {
			expected[w.addr] = w.val
		}
	}
	img := s.NVRAMImage()
	for a := range touched {
		want := expected[a]
		if got := img.ReadWord(a); got != want {
			bad = append(bad, "state mismatch at "+a.String()+
				": image "+itoa(uint64(got))+" want "+itoa(uint64(want)))
		}
	}
	sort.Strings(bad)
	return bad
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
