package adversary

import (
	"strings"
	"testing"
	"time"

	"achilles/internal/types"
)

// scenarioFor builds a hand-rolled scenario: one Byzantine node with
// the given behaviors on an f=2 cluster, clean network.
func scenarioFor(b Behavior, seed int64) Scenario {
	return Scenario{
		Seed:    seed,
		F:       2,
		Byz:     map[types.NodeID]Behavior{1: b},
		Weaken:  map[types.NodeID]bool{},
		Victim:  -1,
		GST:     500 * time.Millisecond,
		Horizon: 2 * time.Second,
	}
}

// TestBehaviorsAgainstHonestCheckers runs each attack in isolation
// (and all combined) against honest trusted components: no invariant
// may fire and the cluster must keep committing.
func TestBehaviorsAgainstHonestCheckers(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Behavior
	}{
		{"equivocate", Equivocate},
		{"view-spam", ViewSpam},
		{"withhold", Withhold},
		{"replay", Replay},
		{"all", All},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := scenarioFor(tc.b, 7)
			r := s.Run()
			if len(r.Safety) > 0 {
				t.Fatalf("safety violations under %v: %v", tc.b, r.Safety)
			}
			if len(r.Liveness) > 0 {
				t.Fatalf("liveness failures under %v: %v", tc.b, r.Liveness)
			}
			if r.MaxHeight < 10 {
				t.Fatalf("cluster barely progressed under %v: height %d", tc.b, r.MaxHeight)
			}
		})
	}
}

// TestLyingRecoveryRepliesTolerated crashes a node and lets a
// Byzantine peer lie in its recovery replies: the victim must still
// recover and no invariant may fire.
func TestLyingRecoveryRepliesTolerated(t *testing.T) {
	s := scenarioFor(LieRecovery|ViewSpam, 11)
	s.Victim = 3
	s.CrashAt = 200 * time.Millisecond
	s.RebootAt = 350 * time.Millisecond
	s.Rollback = "stale"
	r := s.Run()
	if len(r.Safety) > 0 {
		t.Fatalf("safety violations: %v", r.Safety)
	}
	if len(r.Liveness) > 0 {
		t.Fatalf("liveness failures: %v", r.Liveness)
	}
}

// TestWeakenedCheckerCaught is the suite's self-test: with one node's
// checker equivocation guards disabled, the split-brain attack must
// reach conflicting commits and the safety invariant must catch it,
// yielding a printable reproducer.
func TestWeakenedCheckerCaught(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 5; seed++ {
		s := RandomScenario(seed, true, false)
		r := s.Run()
		if len(r.Safety) == 0 {
			t.Logf("seed %d: weakened checker not caught (scenario %s)", seed, s)
			continue
		}
		caught++
		found := false
		for _, v := range r.Safety {
			if strings.Contains(v, "SAFETY") || strings.Contains(v, "equivocation") {
				found = true
			}
		}
		if !found {
			t.Errorf("seed %d: violations lack a safety/equivocation report: %v", seed, r.Safety)
		}
		ms, mr := Minimize(s, r)
		if len(mr.Safety) == 0 {
			t.Errorf("seed %d: minimization lost the violation", seed)
		}
		t.Logf("seed %d reproducer: %s (%d violations)", seed, ms, len(mr.Safety))
	}
	if caught == 0 {
		t.Fatal("no weakened-checker scenario was caught by the invariants")
	}
}

// TestFuzzSweepShort is the in-tree slice of `achilles-sim -fuzz`:
// seeded random scenarios combining Byzantine behaviors, crashes,
// rollbacks, and network faults must produce zero invariant failures.
func TestFuzzSweepShort(t *testing.T) {
	count := 12
	if testing.Short() {
		count = 4
	}
	if n := Sweep(1000, count, false, false, t.Errorf); n != 0 {
		t.Fatalf("%d of %d fuzz scenarios failed", n, count)
	}
}

// TestFuzzSweepReconfig interleaves chain-driven reconfiguration — an
// honest member's key rotation and, where a Byzantine member exists,
// its eviction — with the same seeded fault soup: zero invariant
// failures, and the epoch-agreement invariants active throughout.
func TestFuzzSweepReconfig(t *testing.T) {
	count := 8
	if testing.Short() {
		count = 3
	}
	if n := Sweep(4000, count, false, true, t.Errorf); n != 0 {
		t.Fatalf("%d of %d reconfig fuzz scenarios failed", n, count)
	}
}

// TestReconfigCatchUpAcrossEpoch replays reconfig sweep seeds whose
// rebooted victim (n=3, depth 4) is still walking the chain back when a
// key rotation activates. Its stash then holds only certificates signed
// under the new key, which it cannot verify; without the snapshot fetch
// that handleCC starts for them, the victim committed nothing until the
// horizon.
func TestReconfigCatchUpAcrossEpoch(t *testing.T) {
	for _, seed := range []int64{2, 38, 134} {
		s := RandomScenario(seed, false, true)
		if r := s.Run(); r.Failed(s) {
			t.Errorf("seed %d (%s): safety %v, liveness %v", seed, s, r.Safety, r.Liveness)
		}
	}
}

// TestReconfigScenarioActivates pins the basic reconfig path: a clean
// scenario with a rotation and no other faults must activate epoch 1
// and keep committing under the rotated key.
func TestReconfigScenarioActivates(t *testing.T) {
	s := Scenario{
		Seed:    21,
		F:       1,
		Byz:     map[types.NodeID]Behavior{},
		Weaken:  map[types.NodeID]bool{},
		Victim:  -1,
		GST:     300 * time.Millisecond,
		Horizon: 4 * time.Second,
		Reconfig: []ReconfigEvent{
			{At: 500 * time.Millisecond, Op: types.ReconfigRotate, Node: 1, Signer: 1},
		},
	}
	r := s.Run()
	if len(r.Safety) > 0 {
		t.Fatalf("safety violations: %v", r.Safety)
	}
	if len(r.Liveness) > 0 {
		t.Fatalf("liveness failures: %v", r.Liveness)
	}
	if r.MaxEpoch != 1 {
		t.Fatalf("rotation did not activate epoch 1 (max epoch %d)", r.MaxEpoch)
	}
}

func TestScenarioStringRoundsTrip(t *testing.T) {
	s := RandomScenario(42, false, true)
	str := s.String()
	if !strings.Contains(str, "seed=42") {
		t.Fatalf("reproducer lacks seed: %s", str)
	}
	if !s.equal(s.clone()) {
		t.Fatal("clone is not equal to original")
	}
}
