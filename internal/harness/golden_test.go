package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"achilles/internal/core"
	"achilles/internal/sim"
	"achilles/internal/types"
)

// These tests pin the simulator's byte-for-byte behavior under the
// inline (Sync) scheduler. The fingerprint digests the entire commit
// stream — which node committed which block at which virtual time —
// plus every replica's final consensus position, so any change to
// handler ordering, cost metering, or rng draw sequence shows up as a
// different hash. The constants below were captured from the
// pre-scheduler-refactor tree; the staged pipeline must not move them.
//
// If one of these tests fails, the change is NOT merely a refactor: it
// altered the simulated protocol behavior (and with it every number in
// BENCH_achilles.json). Either fix the divergence or consciously
// re-baseline with `go test -run TestGolden -v ./internal/harness`
// and record why in the commit message.

// goldenFingerprint runs the cluster to `until` and digests its
// behavior.
func goldenFingerprint(t *testing.T, c *Cluster, until time.Duration) string {
	t.Helper()
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	c.Engine.OnCommit = func(rec sim.CommitRecord) {
		u64(uint64(rec.Node))
		bh := rec.Block.Hash()
		h.Write(bh[:])
		u64(uint64(rec.Block.Height))
		u64(uint64(rec.Block.View))
		u64(uint64(rec.CC.View))
		u64(uint64(rec.At))
	}
	c.Engine.Start()
	c.Engine.Run(types.Time(until))
	for i := 0; i < c.N; i++ {
		rep, ok := c.Engine.Replica(types.NodeID(i)).(*core.Replica)
		if !ok {
			t.Fatalf("node %d is not a core.Replica", i)
		}
		u64(uint64(rep.View()))
		u64(uint64(rep.Ledger().CommittedHeight()))
		head := rep.Ledger().Head().Hash()
		h.Write(head[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDepths are the pipeline depths the golden hashes must be
// byte-identical across: 0 (the default) and an explicit 1 must both
// run the historical lock-step hot path. Any divergence means the
// pipelining refactor leaked into the depth-1 sequence.
var goldenDepths = []int{0, 1}

// TestGoldenLedgerHashSteady pins a fault-free saturated run.
func TestGoldenLedgerHashSteady(t *testing.T) {
	const want = "0671e2d59b5a55c811e9bc31c2c0194acf68673c0a36713c8ef0c90791ea9079"
	for _, depth := range goldenDepths {
		c := NewCluster(ClusterConfig{
			Protocol: Achilles, F: 2, BatchSize: 50, PayloadSize: 32,
			Seed: 41, Synthetic: true, PipelineDepth: depth,
		})
		got := goldenFingerprint(t, c, 1500*time.Millisecond)
		if got != want {
			t.Fatalf("steady-state golden fingerprint moved (pipeline depth %d):\n got %s\nwant %s\nthe refactor changed simulated behavior (see file comment)", depth, got, want)
		}
	}
}

// TestGoldenLedgerHashRecovery pins a run with a crash, a sealed-state
// rollback and the recovery protocol — the paths with the most
// verification traffic and the most rng-sensitive send ordering.
//
// Re-baselined once when survivors started skipping a recovering
// leader's view: the victim reboots while the survivors sit in view 397,
// which it leads. They used to wait out that view's timer (recovery
// 13.9 ms of virtual time); they now leave it when its request arrives
// (recovery 2.7 ms), so every later commit time moves.
func TestGoldenLedgerHashRecovery(t *testing.T) {
	const want = "64ea3bc292706a19ab33c9bd1acb69c27a08ab16bc6195325eccf2b65546fa2e"
	for _, depth := range goldenDepths {
		c := NewCluster(ClusterConfig{
			Protocol: Achilles, F: 2, BatchSize: 50, PayloadSize: 32,
			Seed: 43, Synthetic: true, PipelineDepth: depth,
		})
		st := c.SealedStore(2)
		c.Engine.At(399*time.Millisecond, func() { st.Wipe("rollback") })
		c.CrashReboot(2, 400*time.Millisecond, 550*time.Millisecond)
		got := goldenFingerprint(t, c, 2500*time.Millisecond)
		if got != want {
			t.Fatalf("recovery golden fingerprint moved (pipeline depth %d):\n got %s\nwant %s\nthe refactor changed simulated behavior (see file comment)", depth, got, want)
		}
	}
}
