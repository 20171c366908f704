package pmemlog_test

import (
	"errors"
	"fmt"

	"pmemlog"
)

// The smallest complete use of the library: one persistent transaction on
// the paper's full design.
func Example() {
	cfg := pmemlog.DefaultConfig(pmemlog.FWB, 1)
	cfg.NVRAMBytes = 16 << 20
	cfg.LogBytes = 64 << 10
	cfg.GrowReserveBytes = 1 << 20
	sys, err := pmemlog.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	a, _ := sys.Heap().Alloc(8)
	err = sys.RunN(func(ctx pmemlog.Ctx, id int) {
		ctx.TxBegin()
		ctx.Store(a, 42)
		ctx.TxCommit()
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("committed transactions:", sys.Stats().Transactions)
	// Output: committed transactions: 1
}

// Crash the machine mid-transaction and recover: committed work survives,
// in-flight work rolls back.
func ExampleSystem_Recover() {
	cfg := pmemlog.DefaultConfig(pmemlog.FWB, 1)
	cfg.NVRAMBytes = 16 << 20
	cfg.LogBytes = 64 << 10
	cfg.GrowReserveBytes = 1 << 20
	cfg.TrackOracle = true
	sys, _ := pmemlog.NewSystem(cfg)
	a, _ := sys.Heap().Alloc(8)
	b, _ := sys.Heap().Alloc(8)
	setup := sys.SetupCtx()
	setup.Store(a, 0)
	setup.Store(b, 0)

	sys.ScheduleCrash(25_000)
	err := sys.RunN(func(ctx pmemlog.Ctx, id int) {
		for {
			ctx.TxBegin()
			ctx.Store(a, ctx.Load(a)+1)
			ctx.Store(b, ctx.Load(b)+1)
			ctx.TxCommit()
		}
	})
	fmt.Println("crashed:", errors.Is(err, pmemlog.ErrCrashed))

	if _, err := sys.Recover(); err != nil {
		panic(err)
	}
	fmt.Println("counters equal after recovery:", sys.Peek(a) == sys.Peek(b))
	// Output:
	// crashed: true
	// counters equal after recovery: true
}

// The Section IV-C persistence bound on the volatile log buffer: with the
// Table II cache latencies it is the paper's 15-entry design point.
func ExampleLogBufferBound() {
	cfg := pmemlog.DefaultConfig(pmemlog.FWB, 8)
	fmt.Println("max safe log buffer entries:", pmemlog.LogBufferBound(cfg))
	// Output: max safe log buffer entries: 15
}
