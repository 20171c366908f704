package sim

import (
	"errors"
	"math/rand"
	"testing"

	"pmemlog/internal/mem"
	"pmemlog/internal/txn"
)

// growHeavyConfig makes log_grow routine: a minuscule log, big transactions.
func growHeavyConfig(mode txn.Mode) Config {
	cfg := smallConfig(mode, 2)
	cfg.LogBytes = 4 << 10 // ~126 records
	cfg.GrowReserveBytes = 2 << 20
	cfg.GrowFactor = 2
	return cfg
}

// bigTxWorkload runs transactions large enough to wedge a tiny log,
// forcing log_grow while other transactions run concurrently.
func bigTxWorkload(s *System, threads, txns int) (func(Ctx, int), error) {
	bases := make([]mem.Addr, threads)
	for i := 0; i < threads; i++ {
		a, err := s.Heap().AllocLine(64 * 8)
		if err != nil {
			return nil, err
		}
		bases[i] = a
		for w := 0; w < 64; w++ {
			s.SetupCtx().Store(a+mem.Addr(8*w), 0)
		}
	}
	return func(ctx Ctx, id int) {
		rng := rand.New(rand.NewSource(int64(id) + 5))
		for k := 0; k < txns; k++ {
			ctx.TxBegin()
			// 40-80 stores per transaction: a handful of these exceed the
			// 126-record log and trigger log_grow mid-transaction.
			n := 40 + rng.Intn(41)
			for j := 0; j < n; j++ {
				a := bases[id] + mem.Addr(8*rng.Intn(64))
				ctx.Store(a, ctx.Load(a)+1)
			}
			ctx.TxCommit()
		}
	}, nil
}

func TestLogGrowUnderLoad(t *testing.T) {
	s := mustSystem(t, growHeavyConfig(txn.FWB))
	w, err := bigTxWorkload(s, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunN(w); err != nil {
		t.Fatal(err)
	}
	if s.Engine().Stats().Grows == 0 {
		t.Fatal("workload never grew the log; test ineffective")
	}
	if s.Stats().Transactions != 40 {
		t.Errorf("transactions = %d", s.Stats().Transactions)
	}
}

// Crashing at arbitrary points across grow-heavy execution — before,
// during, and after migrations — must stay recoverable: the forward
// pointer in the original region's metadata is made durable before any
// post-grow append, so recovery always finds the active region.
func TestLogGrowCrashRecovery(t *testing.T) {
	probe := mustSystem(t, growHeavyConfig(txn.FWB))
	w, err := bigTxWorkload(probe, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.RunN(w); err != nil {
		t.Fatal(err)
	}
	total := probe.WallCycles()
	if probe.Engine().Stats().Grows == 0 {
		t.Fatal("probe never grew")
	}

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		crashAt := uint64(rng.Int63n(int64(total))) + 1
		s := mustSystem(t, growHeavyConfig(txn.FWB))
		w, err := bigTxWorkload(s, 2, 20)
		if err != nil {
			t.Fatal(err)
		}
		s.ScheduleCrash(crashAt)
		if err := s.RunN(w); !errors.Is(err, ErrCrashed) {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := s.Recover()
		if err != nil {
			t.Fatalf("trial %d (crash@%d): recovery: %v", trial, crashAt, err)
		}
		if bad := s.VerifyRecovery(rep, crashAt); len(bad) != 0 {
			t.Fatalf("trial %d (crash@%d): %s", trial, crashAt, bad[0])
		}
	}
}
