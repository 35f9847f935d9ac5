package core

import (
	"testing"

	"achilles/internal/types"
)

// TestUnverifiableCertificateOverHeldChainFetchesSnapshot pins the
// catch-up path across an epoch change: a certificate whose whole chain
// is local but whose quorum does not verify under this node's ring
// (here: garbage signatures, standing in for signers rotated in an
// epoch the node has not reached) starts a snapshot fetch from its
// sender, whose lineage proofs can carry the node forward. A
// certificate for an unknown block still goes through block sync.
func TestUnverifiableCertificateOverHeldChainFetchesSnapshot(t *testing.T) {
	r, env, _ := newStashReplica(t)
	genesis := r.store.Genesis()
	b := &types.Block{Parent: genesis.Hash(), View: r.view, Height: 1, Proposer: r.leaderOf(r.view)}
	r.store.Add(b)

	cc := func(h types.Hash) *types.CommitCert {
		return &types.CommitCert{
			Hash: h, View: r.view, Height: 1,
			Signers: []types.NodeID{1, 2, 3}, Sigs: make([]types.Signature, 3),
		}
	}
	sent := func(to types.NodeID) (snap, sync bool) {
		for _, msg := range env.SentTo(to) {
			switch msg.(type) {
			case *types.SnapshotRequest:
				snap = true
			case *types.BlockRequest:
				sync = true
			}
		}
		return snap, sync
	}

	var unknown types.Hash
	unknown[0] = 0xcc
	r.OnMessage(3, &MsgDecide{CC: cc(unknown)})
	if snap, sync := sent(3); snap || !sync {
		t.Fatalf("certificate for an unknown block: snapshot request %v, block request %v; want block sync only", snap, sync)
	}

	r.OnMessage(4, &MsgDecide{CC: cc(b.Hash())})
	if snap, _ := sent(4); !snap {
		t.Fatal("unverifiable certificate over a held chain started no snapshot fetch")
	}
	if len(env.Commits) != 0 {
		t.Fatalf("unverifiable certificate committed %d blocks", len(env.Commits))
	}
}
