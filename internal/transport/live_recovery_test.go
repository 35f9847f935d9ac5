package transport_test

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"achilles/internal/admin"
	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/netchaos"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/tee"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// safetyLog cross-checks commits from every node incarnation: no two
// commits at the same height may name different blocks (the paper's
// safety property, checked over real sockets).
type safetyLog struct {
	mu         sync.Mutex
	byHeight   map[types.Height]types.Hash
	violations []string
}

func newSafetyLog() *safetyLog { return &safetyLog{byHeight: make(map[types.Height]types.Hash)} }

func (s *safetyLog) record(t *testing.T, node string, b *types.Block) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := b.Hash()
	if prev, ok := s.byHeight[b.Height]; ok {
		if prev != h {
			s.violations = append(s.violations, node)
			t.Errorf("SAFETY: %s committed a different block at height %d", node, b.Height)
		}
		return
	}
	s.byHeight[b.Height] = h
}

// TestLiveRecoverySoak is the end-to-end validation of Algorithm 3
// outside the simulator: a real 5-node TCP cluster runs behind the
// netchaos layer (latency+jitter, probabilistic frame drops,
// connection resets); a replica is killed mid-commit, its sealed
// storage is rolled back to the oldest version the enclave ever wrote
// (the Sec. 2.1 rollback attack), and it is restarted in recovery
// mode — while partitioned from one peer for the first stretch of its
// recovery. The test asserts that recovery completes over real
// sockets, the recovered node commits again, and safety holds across
// both incarnations.
func TestLiveRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live recovery soak skipped in -short mode")
	}
	registerAchilles()
	const (
		n      = 5
		f      = 2
		seed   = 77
		victim = types.NodeID(1)
	)
	scheme := crypto.ECDSAScheme{}
	ring := crypto.NewKeyRing()
	privs := make([]crypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(seed, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		privs[i] = p
	}
	peers := transport.LocalPeers(n, 23811)

	chaos := netchaos.New(netchaos.Config{
		Seed:      seed,
		Latency:   500 * time.Microsecond,
		Jitter:    250 * time.Microsecond,
		DropRate:  0.01,
		ResetRate: 0.002,
	})

	safety := newSafetyLog()
	commits := make([]atomic.Uint64, n)
	stores := make([]*tee.VersionedStore, n)
	for i := range stores {
		stores[i] = tee.NewVersionedStore()
	}

	// The victim carries the observability stack across both of its
	// incarnations: the admin server scrapes the same registry before
	// and after the crash, exercising collector re-registration.
	vicReg := obs.NewRegistry()
	vicTracer := obs.NewTracer(1024)

	newReplica := func(id types.NodeID, recovering bool) *core.Replica {
		var secret [32]byte
		secret[0] = byte(id)
		var reg *obs.Registry
		var tracer *obs.Tracer
		if id == victim {
			reg, tracer = vicReg, vicTracer
		}
		return core.New(core.Config{
			Config: protocol.Config{
				Self: id, N: n, F: f,
				BatchSize: 16, PayloadSize: 8,
				BaseTimeout: 250 * time.Millisecond, Seed: seed,
			},
			Scheme:            scheme,
			Ring:              ring,
			Priv:              privs[id],
			MachineSecret:     secret,
			SealedStore:       stores[id],
			Recovering:        recovering,
			SyntheticWorkload: true,
			Obs:               reg,
			Trace:             tracer,
		})
	}
	startRuntime := func(id types.NodeID, rep *core.Replica, label string) *transport.Runtime {
		rt := transport.New(transport.Config{
			Self:         id,
			Listen:       peers[id],
			Peers:        peers,
			Scheme:       scheme,
			Ring:         ring,
			Priv:         privs[id],
			Dial:         chaos.Dialer(peers[id]),
			WrapAccepted: chaos.WrapAccepted(peers[id]),
			DialRetry:    50 * time.Millisecond,
			OnCommit: func(b *types.Block, cc *types.CommitCert) {
				if cc == nil || len(cc.Signers) < f+1 {
					t.Errorf("%s: commit without quorum certificate", label)
				}
				safety.record(t, label, b)
				commits[id].Add(1)
			},
		}, rep)
		if err := rt.Start(); err != nil {
			t.Fatalf("start %s: %v", label, err)
		}
		return rt
	}

	runtimes := make([]*transport.Runtime, n)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		runtimes[i] = startRuntime(id, newReplica(id, false), id.String())
	}
	defer func() {
		for _, rt := range runtimes {
			if rt != nil {
				rt.Stop()
			}
		}
	}()

	waitCommits := func(id types.NodeID, target uint64, timeout time.Duration, what string) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if commits[id].Load() >= target {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("%s: node %v stuck at %d/%d commits", what, id, commits[id].Load(), target)
	}

	// Phase 1: the cluster commits under chaos.
	waitCommits(0, 5, 30*time.Second, "pre-crash")
	waitCommits(victim, 3, 30*time.Second, "pre-crash victim")

	// Phase 2: kill the victim mid-commit and mount the rollback attack
	// on its (OS-controlled) sealed storage.
	runtimes[victim].Stop()
	runtimes[victim] = nil
	stores[victim].RollBackTo("achilles-config", 0)
	preOutage := commits[0].Load()

	// The rest of the cluster must keep committing with the victim down
	// (n=5 tolerates f=2 crashed).
	waitCommits(0, preOutage+3, 30*time.Second, "during outage")

	// Phase 3: restart the victim in recovery mode, initially
	// partitioned from one peer — recovery needs only f+1 of the
	// remaining replies (Algorithm 3), so it must complete anyway.
	chaos.Partition(peers[victim], peers[2])
	healed := time.AfterFunc(700*time.Millisecond, func() {
		chaos.Heal(peers[victim], peers[2])
	})
	defer healed.Stop()

	victimCommitsBefore := commits[victim].Load()
	rep2 := newReplica(victim, true)
	runtimes[victim] = startRuntime(victim, rep2, "p1'")

	// The recovering incarnation serves the admin endpoints; /healthz
	// must report 503 until recovery completes and commits resume.
	srv, err := admin.Start("127.0.0.1:0", admin.Config{
		Registry: vicReg,
		Tracer:   vicTracer,
		Replica:  rep2,
		Runtime:  runtimes[victim],
		Chaos:    chaos,
	})
	if err != nil {
		t.Fatalf("admin start: %v", err)
	}
	defer srv.Close()
	adminBase := "http://" + srv.Addr()

	// Phase 4: recovery completes (a recovering replica never commits,
	// so post-restart commits imply TEErecover succeeded) and the
	// cluster — victim included — keeps committing fresh blocks.
	waitCommits(victim, victimCommitsBefore+3, 60*time.Second, "post-recovery")
	postRecovery := commits[0].Load()
	waitCommits(0, postRecovery+2, 30*time.Second, "post-recovery cluster")
	// Every node, not only node 0 and the victim, keeps committing under
	// the chaos profile.
	for i := 0; i < n; i++ {
		waitCommits(types.NodeID(i), 20, 30*time.Second, "every node")
	}

	if len(safety.violations) != 0 {
		t.Fatalf("safety violations at: %v", safety.violations)
	}

	// The victim's metrics must record the completed recovery, and a
	// caught-up, committing node must report healthy.
	code, body := httpGet(t, adminBase+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if v, ok := metricValue(body, "achilles_recovery_attempts_total"); !ok || v < 1 {
		t.Errorf("/metrics: achilles_recovery_attempts_total = %v (present=%v), want >= 1", v, ok)
	}
	if v, ok := metricValue(body, "achilles_recoveries_completed_total"); !ok || v < 1 {
		t.Errorf("/metrics: achilles_recoveries_completed_total = %v (present=%v), want >= 1", v, ok)
	}
	if v, ok := metricValue(body, "achilles_recovering"); !ok || v != 0 {
		t.Errorf("/metrics: achilles_recovering = %v (present=%v), want 0 after recovery", v, ok)
	}
	if v, ok := metricValue(body, "achilles_recovery_last_seconds"); !ok || v <= 0 {
		t.Errorf("/metrics: achilles_recovery_last_seconds = %v (present=%v), want > 0", v, ok)
	}
	healthDeadline := time.Now().Add(10 * time.Second)
	for {
		code, body = httpGet(t, adminBase+"/healthz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("/healthz: still %d after recovery: %s", code, body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	st := chaos.Stats()
	if st.Drops == 0 {
		t.Errorf("chaos layer injected no drops (writes=%d) — soak did not stress the transport", st.Writes)
	}
	t.Logf("soak: node0=%d victim=%d commits; chaos writes=%d drops=%d resets=%d dials=%d denied=%d",
		commits[0].Load(), commits[victim].Load(), st.Writes, st.Drops, st.Resets, st.Dials, st.DialsDenied)
	var reconnects uint64
	for _, ps := range runtimes[0].Stats() {
		reconnects += ps.Reconnects
	}
	t.Logf("node0 transport: %d reconnects across peers", reconnects)
}
