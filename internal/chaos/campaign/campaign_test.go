package campaign

import (
	"reflect"
	"testing"

	"pmemlog/internal/chaos"
)

// TestEveryFaultSiteToleratedOrDetected is the table-driven acceptance
// bar from the campaign's contract, one row per scenario: every armed
// fault site must actually fire (or at least be exercised) and the run
// must come out clean — recovery rebuilt exactly the committed state
// for hardware faults, no acked write lost and full verdict against replay
// agreement for network faults (including the conn-drop-mid-window
// path, which forces the client through reconnect-and-resend).
func TestEveryFaultSiteToleratedOrDetected(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			injected := uint64(0)
			for _, seed := range seeds {
				res := Run(sc, seed, t.TempDir())
				for _, f := range res.Failures {
					t.Errorf("%s", f)
				}
				injected += res.Injected
				if sc.Target == "server" {
					if res.AckedWrites == 0 {
						t.Errorf("seed %d: server run acked no writes", seed)
					}
					if res.AckedLost != 0 {
						t.Errorf("seed %d: %d acked write(s) lost", seed, res.AckedLost)
					}
					if !res.Agreement {
						t.Errorf("seed %d: verdicts disagree with recovery replay", seed)
					}
					if res.Counts[chaos.SiteConnDrop] == 0 {
						t.Errorf("seed %d: conn-drop never fired; client resend path unexercised", seed)
					}
				}
			}
			// The scenario must exercise what it arms. A single seed may
			// legitimately stay quiet (a crash cycle can land when the log
			// buffer holds nothing to tear), so the always-on scenarios
			// assert across the seed set; the probabilistic hardware sites
			// get their own sweep below.
			switch sc.Name {
			case "torn-log-line", "partial-drain", "combined", "net-faults":
				if injected == 0 {
					t.Errorf("%s: armed but injected nothing across seeds %v", sc.Name, seeds)
				}
			}
		})
	}
}

// TestProbabilisticSitesFireAcrossSweep: the lower-probability hardware
// sites (drop-fwb, delay-wb, bank-stall) are allowed quiet single runs,
// but a short sweep must inject at each — otherwise the scenario matrix
// is sweeping dead cells.
func TestProbabilisticSitesFireAcrossSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, name := range []string{"drop-fwb", "delay-wb", "bank-stall"} {
		sc, ok := FindScenario(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		total := uint64(0)
		for seed := int64(1); seed <= 3; seed++ {
			res := Run(sc, seed, t.TempDir())
			for _, f := range res.Failures {
				t.Errorf("%s", f)
			}
			total += res.Injected
		}
		if total == 0 {
			t.Errorf("%s: no injection across seeds 1..3", name)
		}
	}
}

// TestRunReplaysIdentically: the whole point of the seed discipline —
// re-running a (scenario, seed) cell reproduces the run bit-for-bit:
// same crash cycle, same fault schedule, same outcome.
func TestRunReplaysIdentically(t *testing.T) {
	sc, _ := FindScenario("combined")
	a := Run(sc, 11, t.TempDir())
	b := Run(sc, 11, t.TempDir())
	if a.CrashCycle != b.CrashCycle {
		t.Fatalf("crash cycles differ: %d vs %d", a.CrashCycle, b.CrashCycle)
	}
	if a.Injected != b.Injected || !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatalf("fault schedules differ:\n%v %v\n%v %v", a.Injected, a.Counts, b.Injected, b.Counts)
	}
	if !reflect.DeepEqual(a.Failures, b.Failures) {
		t.Fatalf("outcomes differ:\n%v\n%v", a.Failures, b.Failures)
	}
}

// TestFailureMessagesLeadWithSeed: every failure string must reproduce
// the run from the reported seed alone.
func TestFailureMessagesLeadWithSeed(t *testing.T) {
	var r RunResult
	r.Scenario = "torn-log-line"
	r.Seed = 99
	r.failf("state mismatch at %#x", 0x1000)
	if want := "seed 99 [torn-log-line]: state mismatch at 0x1000"; r.Failures[0] != want {
		t.Fatalf("failure = %q, want %q", r.Failures[0], want)
	}
}

// TestFindScenario covers the lookup used by pmchaos -scenarios.
func TestFindScenario(t *testing.T) {
	if _, ok := FindScenario("torn-log-line"); !ok {
		t.Fatal("torn-log-line missing from the matrix")
	}
	if _, ok := FindScenario("no-such-cell"); ok {
		t.Fatal("unknown scenario resolved")
	}
	if n := len(Scenarios()); n < 6 {
		t.Fatalf("scenario matrix has %d cells, acceptance bar needs >= 6", n)
	}
}
