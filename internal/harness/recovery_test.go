package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"achilles/internal/core"
	"achilles/internal/protocol"
	"achilles/internal/sim"
	"achilles/internal/types"
)

// TestAchillesRecovery crashes a backup mid-run, reboots it in
// recovery mode and checks that it rejoins, keeps committing and never
// violates safety — the core of Sec. 4.5.
func TestAchillesRecovery(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Protocol:    Achilles,
		F:           2,
		BatchSize:   50,
		PayloadSize: 16,
		Seed:        3,
		Synthetic:   true,
	})
	victim := types.NodeID(3)
	c.CrashReboot(victim, 300*time.Millisecond, 500*time.Millisecond)

	res := c.Measure(200*time.Millisecond, 2*time.Second)
	if len(res.SafetyViolations) != 0 {
		t.Fatalf("safety violations: %v", res.SafetyViolations)
	}
	if res.Blocks < 10 {
		t.Fatalf("cluster stalled after crash: %+v", res)
	}
	rep, ok := c.Engine.Replica(victim).(*core.Replica)
	if !ok {
		t.Fatalf("unexpected replica type %T", c.Engine.Replica(victim))
	}
	if rep.Recovering() {
		t.Fatal("victim never completed recovery")
	}
	if got := c.Metrics.CommitsAt(victim); got == 0 {
		t.Fatal("victim committed nothing after recovery")
	}
	t.Logf("recovery run: %v; victim commits=%d view=%d", res, c.Metrics.CommitsAt(victim), rep.View())
}

// TestAchillesRecoveryOfLeader reboots the node that is about to lead:
// per Sec. 4.5 it must wait for the next leader before its recovery
// can complete, and the cluster must keep making progress.
func TestAchillesRecoveryOfLeader(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Protocol:    Achilles,
		F:           1,
		BatchSize:   20,
		PayloadSize: 0,
		Seed:        11,
		Synthetic:   true,
	})
	victim := types.NodeID(0)
	c.CrashReboot(victim, 250*time.Millisecond, 400*time.Millisecond)
	res := c.Measure(200*time.Millisecond, 3*time.Second)
	if len(res.SafetyViolations) != 0 {
		t.Fatalf("safety violations: %v", res.SafetyViolations)
	}
	rep := c.Engine.Replica(victim).(*core.Replica)
	if rep.Recovering() {
		t.Fatal("leader victim never completed recovery")
	}
	if res.Blocks == 0 {
		t.Fatalf("no progress: %+v", res)
	}
	t.Logf("leader-recovery run: %v", res)
}

// TestAchillesRecoveryWithRollbackAttack reboots a node whose sealed
// storage has been rolled back to its very first version AND wiped.
// Achilles must not care: the checker state is recovered from peers,
// never from disk, so the run stays safe and live.
func TestAchillesRecoveryWithRollbackAttack(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Protocol:    Achilles,
		F:           2,
		BatchSize:   50,
		PayloadSize: 16,
		Seed:        5,
		Synthetic:   true,
	})
	victim := types.NodeID(1)
	// Mount the rollback attack at crash time: serve the oldest sealed
	// version of everything the enclave ever wrote.
	c.Engine.At(290*time.Millisecond, func() {
		st := c.SealedStore(victim)
		st.RollBackTo("achilles-config", 0)
	})
	c.CrashReboot(victim, 300*time.Millisecond, 450*time.Millisecond)
	res := c.Measure(200*time.Millisecond, 2*time.Second)
	if len(res.SafetyViolations) != 0 {
		t.Fatalf("rollback attack broke safety: %v", res.SafetyViolations)
	}
	rep := c.Engine.Replica(victim).(*core.Replica)
	if rep.Recovering() {
		t.Fatal("victim never recovered under rollback attack")
	}
	if got := c.Metrics.CommitsAt(victim); got == 0 {
		t.Fatal("victim committed nothing after rollback attack")
	}
	t.Logf("rollback-attack run: %v", res)
}

// TestAchillesSequentialReboots reboots several distinct nodes one
// after another (never more than f at once) and checks sustained
// progress and safety.
func TestAchillesSequentialReboots(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Protocol:    Achilles,
		F:           2,
		BatchSize:   20,
		PayloadSize: 0,
		Seed:        13,
		Synthetic:   true,
	})
	c.CrashReboot(1, 300*time.Millisecond, 500*time.Millisecond)
	c.CrashReboot(2, 900*time.Millisecond, 1100*time.Millisecond)
	c.CrashReboot(4, 1500*time.Millisecond, 1700*time.Millisecond)
	res := c.Measure(200*time.Millisecond, 3*time.Second)
	if len(res.SafetyViolations) != 0 {
		t.Fatalf("safety violations: %v", res.SafetyViolations)
	}
	for _, id := range []types.NodeID{1, 2, 4} {
		rep := c.Engine.Replica(id).(*core.Replica)
		if rep.Recovering() {
			t.Fatalf("node %v never recovered", id)
		}
	}
	if res.Blocks < 10 {
		t.Fatalf("cluster stalled: %+v", res)
	}
	t.Logf("sequential reboots: %v", res)
}

// simLog collects the replicas' Logf lines from the simulator's debug
// writer, stamped with the virtual time they were logged at.
type simLog struct {
	eng   *sim.Engine
	at    []types.Time
	lines []string
}

func (l *simLog) Write(p []byte) (int, error) {
	l.at = append(l.at, l.eng.Now())
	l.lines = append(l.lines, string(p))
	return len(p), nil
}

// count returns how many lines node logged in [from, to] that contain
// substr.
func (l *simLog) count(node types.NodeID, substr string, from, to types.Time) int {
	tag := fmt.Sprintf(" %v] ", node)
	n := 0
	for i, line := range l.lines {
		if l.at[i] >= from && l.at[i] <= to && strings.Contains(line, tag) && strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// first returns the virtual time of node's first line containing
// substr.
func (l *simLog) first(node types.NodeID, substr string) (types.Time, bool) {
	tag := fmt.Sprintf(" %v] ", node)
	for i, line := range l.lines {
		if strings.Contains(line, tag) && strings.Contains(line, substr) {
			return l.at[i], true
		}
	}
	return 0, false
}

// slowNet has 10 ms one-way links: long enough that link delay, not
// modelled CPU, dominates how long Algorithm 3 takes.
func slowNet() sim.NetworkModel {
	return sim.NetworkModel{RTT: 20 * time.Millisecond, Jitter: 200 * time.Microsecond, Bandwidth: 10e9, FrameOverhead: 66}
}

// TestRecoverySkipsRecoveringLeadersView reboots a victim while the
// survivors sit in a view the victim leads, so nobody can answer for
// that view. The survivors leave it as soon as the victim's recovery
// request arrives: Algorithm 3 finishes in about two link delays
// instead of waiting out their view timer, and neither survivor times
// out while the victim recovers.
func TestRecoverySkipsRecoveringLeadersView(t *testing.T) {
	net := slowNet()
	lg := &simLog{}
	c := NewCluster(ClusterConfig{
		Protocol: Achilles, F: 1, BatchSize: 20, PayloadSize: 16,
		Seed: 7, Synthetic: true, Net: net, Debug: lg,
	})
	lg.eng = c.Engine
	victim := types.NodeID(2)
	survivors := []types.NodeID{0, 1}
	const crashAt, rebootAt = 2 * time.Second, 3 * time.Second
	c.CrashReboot(victim, crashAt, rebootAt)
	c.Engine.At(rebootAt-1, func() {
		for _, id := range survivors {
			r := c.Engine.Replica(id).(*core.Replica)
			if got := r.Membership().Leader(r.View()); got != victim {
				t.Errorf("precondition: survivor %v sits in view %d led by %v, not by the victim", id, r.View(), got)
			}
		}
	})
	res := c.Measure(100*time.Millisecond, 3500*time.Millisecond)
	if len(res.SafetyViolations) != 0 {
		t.Fatalf("safety violations: %v", res.SafetyViolations)
	}
	done, ok := lg.first(victim, "recovery complete")
	if !ok {
		t.Fatal("victim never completed recovery")
	}
	// RecoveryTime runs from the first request to TEErecover (Table 2's
	// "Recovery" row); the modelled enclave start-up precedes it.
	oneWay := net.RTT / 2
	if took := c.Engine.Replica(victim).(*core.Replica).RecoveryTime(); took > 3*oneWay {
		t.Fatalf("recovery took %v, want <= %v (3 link delays)", took, 3*oneWay)
	}
	for _, id := range survivors {
		if n := lg.count(id, "timed out", rebootAt, done); n != 0 {
			t.Errorf("survivor %v timed out %d times while the victim recovered", id, n)
		}
		if n := lg.count(id, "skipped: leader 2 is recovering", rebootAt, done); n != 1 {
			t.Errorf("survivor %v skipped the victim's view %d times, want 1", id, n)
		}
	}
}

// TestRecoveryRetryKeepsRepliesInFlight runs recovery over links slower
// than the first retry: the victim re-broadcasts before any reply to
// its first request arrives. Retries re-send the same request, so the
// replies to the first broadcast still complete recovery, one round
// trip after the reboot.
func TestRecoveryRetryKeepsRepliesInFlight(t *testing.T) {
	net := slowNet()
	const retry = 8 * time.Millisecond
	firstRetry := retry/2 + retry/8 // startRecovery's delay for attempt 1
	if firstRetry >= net.RTT/2 {
		t.Fatalf("test setup: first retry %v must fire before a one-way delay %v", firstRetry, net.RTT/2)
	}
	c := NewCluster(ClusterConfig{
		Protocol: Achilles, F: 1, BatchSize: 20, PayloadSize: 16,
		Seed: 7, Synthetic: true, Net: net, RecoveryRetry: retry,
	})
	victim := types.NodeID(2)
	c.CrashReboot(victim, 2*time.Second, 3*time.Second)
	res := c.Measure(100*time.Millisecond, 3500*time.Millisecond)
	if len(res.SafetyViolations) != 0 {
		t.Fatalf("safety violations: %v", res.SafetyViolations)
	}
	rep := c.Engine.Replica(victim).(*core.Replica)
	if rep.Recovering() {
		t.Fatal("victim never completed recovery")
	}
	// The first request and the retry timer leave together; replies to
	// the retry cannot arrive before firstRetry + RTT, so finishing
	// earlier means the first broadcast's replies were used.
	if took := rep.RecoveryTime(); took >= firstRetry+net.RTT {
		t.Fatalf("recovery took %v, want < %v (first retry + one round trip)", took, firstRetry+net.RTT)
	}
	if n := c.Engine.MessageCounts()[(&core.MsgRecoveryReq{}).Type()]; n < 2*uint64(c.N-1) {
		t.Fatalf("victim sent %d recovery requests, want at least two broadcasts (a retry before the replies arrived)", n)
	}
}

// requestSpammer is a Byzantine host that broadcasts a fresh, validly
// signed recovery request every time its (otherwise honest) replica
// enters a view.
type requestSpammer struct {
	protocol.Replica
	self  types.NodeID
	inner *core.Replica
	env   protocol.Env
	sign  func([]byte) types.Signature
	view  types.View
	nonce uint64
}

func (s *requestSpammer) Init(env protocol.Env) {
	s.env = env
	s.Replica.Init(env)
	s.spam()
}

func (s *requestSpammer) OnMessage(from types.NodeID, msg types.Message) {
	s.Replica.OnMessage(from, msg)
	s.spam()
}

func (s *requestSpammer) OnTimer(id types.TimerID) {
	s.Replica.OnTimer(id)
	s.spam()
}

func (s *requestSpammer) spam() {
	if v := s.inner.View(); v != s.view {
		s.view = v
		s.nonce++
		s.env.Broadcast(&core.MsgRecoveryReq{Req: &types.RecoveryReq{
			Nonce: s.nonce, Signer: s.self, Sig: s.sign(types.RecoveryReqPayload(s.nonce)),
		}})
	}
}

// TestRecoveryRequestSpamCostsOnlyOwnViews lets a Byzantine node send a
// fresh, validly signed recovery request every view. Honest nodes skip
// a view only when its leader asks, so the spam can cost the cluster
// only the spammer's own views: every skipped view is the spammer's,
// nobody times out, the honest nodes keep committing, and safety holds.
func TestRecoveryRequestSpamCostsOnlyOwnViews(t *testing.T) {
	const byz = types.NodeID(1)
	const warmup, until = 100 * time.Millisecond, 1100 * time.Millisecond
	run := func(spam bool) (*Cluster, *simLog, Result) {
		lg := &simLog{}
		var c *Cluster
		cfg := ClusterConfig{
			Protocol: Achilles, F: 1, BatchSize: 20, PayloadSize: 16,
			Seed: 7, Synthetic: true, Debug: lg,
		}
		if spam {
			cfg.Wrap = func(id types.NodeID, _ bool, r protocol.Replica) protocol.Replica {
				if id != byz {
					return r
				}
				sign := func(p []byte) types.Signature { return c.Config.Scheme.Sign(c.PrivateKey(id), p) }
				return &requestSpammer{Replica: r, self: id, inner: r.(*core.Replica), sign: sign}
			}
		}
		c = NewCluster(cfg)
		lg.eng = c.Engine
		return c, lg, c.Measure(warmup, until-warmup)
	}
	_, _, clean := run(false)
	c, lg, spammed := run(true)
	if len(spammed.SafetyViolations) != 0 {
		t.Fatalf("safety violations under request spam: %v", spammed.SafetyViolations)
	}
	t.Logf("blocks committed: clean %d, under spam %d", clean.Blocks, spammed.Blocks)
	if spammed.Blocks < clean.Blocks/2 {
		t.Errorf("cluster committed %d blocks under spam, %d in the clean run", spammed.Blocks, clean.Blocks)
	}
	for _, id := range []types.NodeID{0, 2} {
		if n := lg.count(id, "timed out", 0, until); n != 0 {
			t.Errorf("honest node %v timed out %d times under request spam", id, n)
		}
		if n := lg.count(id, "skipped: leader 1 is recovering", 0, until); n == 0 {
			t.Errorf("honest node %v never skipped a spammer's view: the spam did not bite", id)
		}
	}
	for i, line := range lg.lines {
		var v types.View
		var leader types.NodeID
		if _, err := fmt.Sscanf(line[strings.Index(line, "] ")+2:], "view %d skipped: leader %d", &v, &leader); err != nil {
			continue
		}
		if leader != byz || types.LeaderForView(v, c.N) != byz {
			t.Errorf("skipped view %d (leader %v) at %v: only the spammer's views may be skipped", v, leader, lg.at[i])
		}
	}
}

// TestPipelinedVictimRecoversWithWindowsOpen reboots a depth-4 victim
// while the survivors' stable leader keeps its pipeline window open, so
// each survivor's checker has stored heights above its committed tip.
// A recovery reply must attach the block the checker attests (the
// highest stored one), not the block committed last, or the victim
// rejects every reply and stays in recovery.
func TestPipelinedVictimRecoversWithWindowsOpen(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Protocol: Achilles, F: 2, BatchSize: 20, PayloadSize: 16,
		Seed: 1, Synthetic: true, PipelineDepth: 4,
	})
	victim := types.NodeID(4)
	survivors := []types.NodeID{0, 1, 2, 3}
	const rebootAt = 300 * time.Millisecond
	c.CrashReboot(victim, 200*time.Millisecond, rebootAt)
	c.Engine.At(rebootAt-1, func() {
		for _, id := range survivors {
			r := c.Engine.Replica(id).(*core.Replica)
			if r.Membership().Leader(r.View()) == victim {
				t.Errorf("precondition: survivor %v sits in the victim's view %d", id, r.View())
			}
			if prep, tip := r.Checker().PrepHeight(), r.Ledger().CommittedHeight(); prep <= tip {
				t.Errorf("precondition: survivor %v has no open window (prepared %d, committed %d)", id, prep, tip)
			}
		}
	})
	const warmup, until = 100 * time.Millisecond, rebootAt + 50*time.Millisecond
	res := c.Measure(warmup, until-warmup)
	if len(res.SafetyViolations) != 0 {
		t.Fatalf("safety violations: %v", res.SafetyViolations)
	}
	rep := c.Engine.Replica(victim).(*core.Replica)
	if rep.Recovering() {
		t.Fatal("depth-4 victim still recovering 50 ms after reboot")
	}
	t.Logf("recovery took %v", rep.RecoveryTime())
}
