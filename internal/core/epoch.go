package core

// This file implements chain-driven reconfiguration (DESIGN.md §10):
// dynamic membership, ring-key rotation and epoch activation. A signed
// types.Reconfig command rides the chain inside an ordinary transaction
// payload; once the carrying block commits at height h, the next
// epoch's configuration is scheduled and activates deterministically on
// every replica when the committed height reaches h+Δ. Activation swaps
// the membership (quorum size, leader rotation), rebuilds the PKI ring
// from the new epoch's marshalled keys, rotates the verification
// services, and seals the new epoch's config hash into the enclave,
// which rotates the sealing key — old-epoch sealed blobs are refused
// loudly from then on.
//
// Safety across the boundary follows from two rules: at most one
// reconfiguration is in flight at a time (a second command is rejected
// until the pending epoch activates), and the activation delay Δ ≥ 1
// means the block that triggers activation — and every block at or
// below it — is certified entirely under the old epoch's configuration.
// Every replica therefore applies the same configuration to the same
// heights, and the commit that crosses the boundary is never judged by
// two different quorum rules on different nodes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"achilles/internal/crypto"
	"achilles/internal/obs"
	"achilles/internal/types"
)

// defaultReconfigDelay is the Δ between a reconfig command's commit
// height and its epoch's activation height.
const defaultReconfigDelay = 4

// reconfigDelay returns the configured activation delay Δ.
func (r *Replica) reconfigDelay() types.Height {
	if r.cfg.ReconfigDelay > 0 {
		return types.Height(r.cfg.ReconfigDelay)
	}
	return defaultReconfigDelay
}

// quorum returns the active epoch's f+1 quorum. It replaces every
// former protocol.Config.Quorum() call on the replica hot path; for the
// boot membership 0..n-1 the two agree exactly.
func (r *Replica) quorum() int { return r.member.Quorum() }

// leaderOf returns the active epoch's round-robin leader of view v.
func (r *Replica) leaderOf(v types.View) types.NodeID { return r.member.Leader(v) }

// isLeader reports whether this node leads view v under the active
// epoch. A removed (learner) node never leads.
func (r *Replica) isLeader(v types.View) bool { return r.leaderOf(v) == r.cfg.Self }

// Membership returns the active epoch's configuration (an immutable
// snapshot; safe from any goroutine).
func (r *Replica) Membership() *types.Membership { return r.obsMember.Load() }

// PendingMembership returns the scheduled next epoch's configuration,
// or nil when no reconfiguration is in flight (safe from any goroutine).
func (r *Replica) PendingMembership() *types.Membership { return r.obsPending.Load() }

// initMembership establishes the boot epoch's configuration before the
// trusted components are wired. With no explicit InitialMembership the
// boot config is the conventional contiguous set 0..N-1 keyed by the
// configured ring — bit-identical quorum and leader behavior to the
// fixed-membership replica.
func (r *Replica) initMembership() {
	m := r.cfg.InitialMembership
	if m == nil {
		keys := make(map[types.NodeID][]byte, r.cfg.N)
		for _, id := range r.cfg.Ring.IDs() {
			if int(id) < r.cfg.N {
				keys[id] = r.cfg.Scheme.MarshalPublic(r.cfg.Ring.Get(id))
			}
		}
		m = types.BootMembership(r.cfg.N, keys, nil)
	} else {
		m = m.Clone()
	}
	r.member = m
	r.epochRings = map[types.Epoch]*crypto.KeyRing{m.Epoch: r.cfg.Ring}
	r.obsMember.Store(m)
	if d := r.cfg.Durable; d != nil {
		d.SetEpochConfig(m.Epoch, m, nil)
	}
}

// syncEnclaveEpoch reconciles the enclave's sealed epoch with the boot
// configuration after Init restored it. A fresh enclave behind an
// operator-supplied boot config (a joiner, or a reboot after rotation
// onto a wiped sealed store) is advanced; an enclave AHEAD of
// everything the node can reconstruct attests a configuration rollback
// and is reported, loudly, to the flight recorder.
func (r *Replica) syncEnclaveEpoch() {
	switch {
	case r.enclave.Epoch() < uint64(r.member.Epoch):
		if err := r.enclave.AdvanceEpoch(uint64(r.member.Epoch), r.member.ConfigHash()); err != nil {
			r.env.Logf("reconfig: enclave refused boot epoch %d: %v", r.member.Epoch, err)
			r.flightTrigger("reconfig-activation-failure",
				fmt.Sprintf("boot epoch=%d err=%v", r.member.Epoch, err))
		}
	case r.enclave.Epoch() > uint64(r.member.Epoch):
		r.env.Logf("reconfig: enclave attests epoch %d but boot state reconstructs only epoch %d (configuration rollback)",
			r.enclave.Epoch(), r.member.Epoch)
		r.flightTrigger("reconfig-activation-failure",
			fmt.Sprintf("enclave epoch=%d reconstructed=%d", r.enclave.Epoch(), r.member.Epoch))
	case r.member.Epoch > 0 && r.enclave.EpochConfigHash() != r.member.ConfigHash():
		r.env.Logf("reconfig: reconstructed epoch %d config hash %x disagrees with the enclave-sealed %x (forged or corrupt configuration)",
			r.member.Epoch, r.member.ConfigHash(), r.enclave.EpochConfigHash())
		r.flightTrigger("reconfig-activation-failure",
			fmt.Sprintf("epoch=%d config hash mismatch", r.member.Epoch))
	}
}

// stagedRotation is the private half of an announced key rotation,
// held until the epoch carrying the matching public key activates.
type stagedRotation struct {
	priv crypto.PrivateKey
	pub  []byte
}

// StageRotationKey hands the replica the private half of its own key
// rotation before the rotation commits. When epoch `epoch` activates
// with `pub` as this node's ring key, the replica switches its signing
// key to priv atomically with the ring swap — a rotated node that kept
// signing with the old key would be silently evicted by its own peers.
// The staged key is discarded unused if the epoch activates with a
// different key for this node. Safe to call from any goroutine.
func (r *Replica) StageRotationKey(epoch types.Epoch, priv crypto.PrivateKey, pub []byte) {
	r.keyMu.Lock()
	defer r.keyMu.Unlock()
	if r.stagedPrivs == nil {
		r.stagedPrivs = make(map[types.Epoch]stagedRotation)
	}
	r.stagedPrivs[epoch] = stagedRotation{priv: priv, pub: append([]byte(nil), pub...)}
}

// takeStagedKey pops the staged rotation for an activating epoch, if
// its public half matches what the epoch actually installed for us.
func (r *Replica) takeStagedKey(m *types.Membership) (crypto.PrivateKey, bool) {
	r.keyMu.Lock()
	defer r.keyMu.Unlock()
	sk, ok := r.stagedPrivs[m.Epoch]
	if !ok {
		return nil, false
	}
	delete(r.stagedPrivs, m.Epoch)
	if !bytes.Equal(m.Keys[r.cfg.Self], sk.pub) {
		return nil, false
	}
	return sk.priv, true
}

// adoptOwnKey re-resolves this node's signing key against the active
// epoch's ring through the KeyByPub hook. Called at boot once the
// restored epoch is settled, and as the fallback at activation when no
// rotation key was staged.
func (r *Replica) adoptOwnKey() {
	if r.cfg.KeyByPub == nil {
		return
	}
	kb, ok := r.member.Keys[r.cfg.Self]
	if !ok || len(kb) == 0 {
		return
	}
	if priv := r.cfg.KeyByPub(kb); priv != nil {
		r.svc.RekeyPriv(priv)
		r.teeSvc.RekeyPriv(priv)
	}
}

// SubmitReconfig queues a signed reconfiguration command for ordering
// through the chain (priority lane — reconfigurations must not starve
// behind a deep client backlog) and forwards it to the peers as an
// ordinary client submission. The forward is what makes the command
// live under chained pipelining: a healthy pipelined cluster keeps one
// leader for as long as it commits, so "wait in this node's pool until
// it leads" — sufficient under per-height rotation — could starve the
// command forever. Mempool dedup collapses the copies, so at most one
// commits. The authoritative checks — signer is a member, signature
// verifies under the epoch the command commits in, the change applies
// cleanly — happen at commit time on every replica; this only rejects
// structurally hopeless commands. Safe to call from any goroutine
// (admin endpoints, tests): the live transport's Send/Broadcast are
// concurrency-safe queue handoffs.
func (r *Replica) SubmitReconfig(rc *types.Reconfig) error {
	if rc == nil {
		return errors.New("core: nil reconfig")
	}
	switch rc.Op {
	case types.ReconfigAdd, types.ReconfigRotate:
		if len(rc.Key) == 0 {
			return fmt.Errorf("core: reconfig %s of node %d carries no key", rc.Op, rc.Node)
		}
	case types.ReconfigRemove:
	default:
		return fmt.Errorf("core: unknown reconfig op %d", rc.Op)
	}
	if len(rc.Sig) == 0 {
		return errors.New("core: reconfig is unsigned")
	}
	payload := rc.EncodeTx()
	h := types.HashBytes(payload)
	tx := types.Transaction{
		Client:  rc.Signer,
		Seq:     binary.BigEndian.Uint32(h[:4]),
		Payload: payload,
	}
	r.pool.Requeue([]types.Transaction{tx})
	r.env.Broadcast(&types.ClientRequest{Txs: []types.Transaction{tx}})
	return nil
}

// forwardReconfigTxs gives operator-submitted reconfig commands the
// same treatment SubmitReconfig gives node-originated ones: priority
// lane locally plus one broadcast to the peers. An operator CLI sends
// its command to a single replica, which was live under per-height
// leader rotation ("wait in this node's pool until it leads") but
// starves under stable-view pipelining, where a healthy cluster keeps
// one leader indefinitely. Each node forwards a given command at most
// once, so the gossip is bounded at one broadcast per replica per
// command; mempool dedup and commit-time validation collapse the
// copies as usual. Consensus goroutine only.
func (r *Replica) forwardReconfigTxs(txs []types.Transaction) {
	for i := range txs {
		if !types.IsReconfigPayload(txs[i].Payload) {
			continue
		}
		k := txs[i].Key()
		if r.forwardedRc[k] {
			continue
		}
		if len(r.forwardedRc) >= maxForwardedReconfigs {
			clear(r.forwardedRc)
		}
		r.forwardedRc[k] = true
		r.pool.Requeue(txs[i : i+1])
		r.env.Broadcast(&types.ClientRequest{Txs: txs[i : i+1]})
	}
}

// maxForwardedReconfigs bounds the forwarded-command dedup set.
// Reconfigurations are rare (one in flight per epoch), so the cap only
// guards against a client spraying garbage reconfig-magic payloads;
// clearing wholesale on overflow risks at worst one extra broadcast
// per command.
const maxForwardedReconfigs = 256

// scanReconfigs inspects freshly committed blocks for reconfig
// commands and schedules the next epoch from the first valid one. Runs
// on the consensus goroutine for live commits and on the Init goroutine
// for restored batches — in both cases in deterministic chain order, so
// every replica schedules the identical epoch at the identical height.
// cc is the certificate that committed the batch (certifying its last
// block); it anchors the transition proof recorded for each scheduled
// epoch, and may be nil on restore paths that lack one.
func (r *Replica) scanReconfigs(blocks []*types.Block, cc *types.CommitCert) {
	for bi, b := range blocks {
		for i := range b.Txs {
			p := b.Txs[i].Payload
			if !types.IsReconfigPayload(p) {
				continue
			}
			rc, ok := types.DecodeReconfigTx(p)
			if !ok {
				r.m.reconfigsRejected.Inc()
				r.env.Logf("reconfig: malformed command committed at height %d; ignoring", b.Height)
				continue
			}
			if r.applyCommittedReconfig(rc, b.Height) {
				r.recordEpochProof(rc, blocks[bi:], cc)
			}
		}
	}
}

// Bounds on the retained epoch-transition proofs: how many blocks one
// proof may span (the scheduling command must sit within this many
// blocks of the certified batch tip — always true in steady state,
// where batches are at most the pipeline window) and how many past
// transitions are kept. A joiner further behind than maxEpochProofs
// epochs falls back to re-booting with a current InitialMembership.
const (
	maxProofBlocks = 32
	maxEpochProofs = 16
)

// recordEpochProof retains the transferable proof of the epoch
// transition just scheduled by applyCommittedReconfig: the command, the
// hash-linked blocks from its carrier to the certified batch tip, and
// the certificate. Served inside snapshots (snapshot.go) so a node
// stranded behind this reconfiguration can verify its way forward.
func (r *Replica) recordEpochProof(rc *types.Reconfig, suffix []*types.Block, cc *types.CommitCert) {
	if r.pending == nil || cc == nil || len(suffix) == 0 || len(suffix) > maxProofBlocks {
		return
	}
	if suffix[len(suffix)-1].Hash() != cc.Hash {
		return
	}
	r.epochProofs[r.pending.Epoch] = &types.EpochTransition{
		Epoch:  r.pending.Epoch,
		Rc:     rc,
		Blocks: append([]*types.Block(nil), suffix...),
		CC:     cc,
	}
	for len(r.epochProofs) > maxEpochProofs {
		oldest := r.pending.Epoch
		for e := range r.epochProofs {
			if e < oldest {
				oldest = e
			}
		}
		delete(r.epochProofs, oldest)
	}
}

// epochLineage returns the retained transition proofs in epoch order,
// for embedding in a served snapshot.
func (r *Replica) epochLineage() []*types.EpochTransition {
	if len(r.epochProofs) == 0 {
		return nil
	}
	out := make([]*types.EpochTransition, 0, len(r.epochProofs))
	for _, t := range r.epochProofs {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// verifyEpochLineage walks transition proofs from this node's active
// epoch up to target, re-running for each hop the authorization checks
// the live commit path ran: the hop's certificate carries an f+1 quorum
// of the previous epoch's members signing under its ring, the certified
// block hash-links down to the block carrying the command, and the
// command itself is signed by a member of that epoch. The walk must
// converge on target's exact config hash — a lineage ending anywhere
// else (including at a configuration derived from a committed command
// the cluster arbitrated away) is refused. Pure: no replica state is
// touched; the derived memberships and rings are returned for the
// caller to adopt.
func (r *Replica) verifyEpochLineage(target *types.Membership,
	lineage []*types.EpochTransition) (*types.Membership, map[types.Epoch]*crypto.KeyRing, error) {
	byEpoch := make(map[types.Epoch]*types.EpochTransition, len(lineage))
	for _, t := range lineage {
		if t != nil {
			byEpoch[t.Epoch] = t
		}
	}
	cur := r.member
	ring := r.epochRings[cur.Epoch]
	if ring == nil {
		ring = r.cfg.Ring
	}
	rings := make(map[types.Epoch]*crypto.KeyRing)
	for cur.Epoch < target.Epoch {
		t := byEpoch[cur.Epoch+1]
		if t == nil {
			return nil, nil, fmt.Errorf("no transition proof for epoch %d", cur.Epoch+1)
		}
		if t.Rc == nil || t.CC == nil || len(t.Blocks) == 0 {
			return nil, nil, fmt.Errorf("epoch %d transition proof is malformed", t.Epoch)
		}
		svc := crypto.NewService(r.cfg.Scheme, ring, nil, r.cfg.Self, nil, crypto.Costs{})
		if len(t.CC.Signers) < cur.Quorum() {
			return nil, nil, fmt.Errorf("epoch %d proof certificate has %d signers, quorum is %d",
				t.Epoch, len(t.CC.Signers), cur.Quorum())
		}
		for _, id := range t.CC.Signers {
			if !cur.Contains(id) {
				return nil, nil, fmt.Errorf("epoch %d proof certificate signer %d is not a member of epoch %d",
					t.Epoch, id, cur.Epoch)
			}
		}
		if !svc.VerifyQuorum(t.CC.Signers,
			types.StoreCertPayload(t.CC.Hash, t.CC.View, t.CC.Height), t.CC.Sigs) {
			return nil, nil, fmt.Errorf("epoch %d proof certificate does not verify under epoch %d's ring",
				t.Epoch, cur.Epoch)
		}
		last := t.Blocks[len(t.Blocks)-1]
		if last.Hash() != t.CC.Hash || last.Height != t.CC.Height {
			return nil, nil, fmt.Errorf("epoch %d proof blocks do not end at the certified block", t.Epoch)
		}
		for i := 1; i < len(t.Blocks); i++ {
			if t.Blocks[i].Parent != t.Blocks[i-1].Hash() {
				return nil, nil, fmt.Errorf("epoch %d proof blocks are not hash-linked", t.Epoch)
			}
		}
		carrier := t.Blocks[0]
		found := false
		want := t.Rc.EncodeTx()
		for i := range carrier.Txs {
			if bytes.Equal(carrier.Txs[i].Payload, want) {
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("epoch %d proof block does not carry the claimed command", t.Epoch)
		}
		if !cur.Contains(t.Rc.Signer) {
			return nil, nil, fmt.Errorf("epoch %d command signer %d is not a member of epoch %d",
				t.Epoch, t.Rc.Signer, cur.Epoch)
		}
		if !svc.Verify(t.Rc.Signer,
			types.ReconfigPayload(t.Rc.Op, t.Rc.Node, t.Rc.Key, t.Rc.Addr), t.Rc.Sig) {
			return nil, nil, fmt.Errorf("epoch %d command signature does not verify under epoch %d's ring",
				t.Epoch, cur.Epoch)
		}
		next, err := cur.Apply(t.Rc, carrier.Height+r.reconfigDelay())
		if err != nil {
			return nil, nil, fmt.Errorf("epoch %d command does not apply: %v", t.Epoch, err)
		}
		nring, err := ringFromMembership(r.cfg.Scheme, next)
		if err != nil {
			return nil, nil, err
		}
		cur, ring = next, nring
		rings[next.Epoch] = nring
	}
	if cur.ConfigHash() != target.ConfigHash() {
		return nil, nil, fmt.Errorf("lineage converges on a different epoch %d configuration", cur.Epoch)
	}
	return cur, rings, nil
}

// adoptEpochLineage verifies a newer-epoch snapshot's transition proofs
// and, on success, advances this node's configuration to the snapshot's
// epoch: enclave epoch marker (sealing-key rotation), membership, rings
// and service keys — the same swap activateEpoch performs, minus the
// chain scheduling that this node slept through. The verified proofs
// are retained so this node can in turn serve joiners behind it.
func (r *Replica) adoptEpochLineage(target *types.Membership,
	lineage []*types.EpochTransition) error {
	final, rings, err := r.verifyEpochLineage(target, lineage)
	if err != nil {
		return err
	}
	if err := r.enclave.AdvanceEpoch(uint64(final.Epoch), final.ConfigHash()); err != nil {
		return fmt.Errorf("enclave refused epoch %d: %v", final.Epoch, err)
	}
	for e, ring := range rings {
		r.epochRings[e] = ring
	}
	fromEpoch := r.member.Epoch
	// A reconfiguration this node had scheduled under its old epoch was
	// arbitrated away by the epochs it slept through; the snapshot's own
	// Pending (if any) is re-armed by the caller after the state installs.
	r.pending = nil
	r.obsPending.Store(nil)
	if err := r.adoptRestoreMembership(final, nil); err != nil {
		return err
	}
	r.adoptOwnKey()
	for _, t := range lineage {
		if t != nil && t.Epoch > fromEpoch && t.Epoch <= final.Epoch {
			r.recordAdoptedProof(t)
		}
	}
	for id := range r.viewClaims {
		if !final.Contains(id) {
			delete(r.viewClaims, id)
		}
	}
	r.m.epochActivations.Inc()
	r.trace.Emit(obs.TraceEpoch, uint64(r.view), uint64(r.store.CommittedHeight()),
		fmt.Sprintf("lineage-adopted epoch=%d from=%d", final.Epoch, fromEpoch))
	cfgHash := final.ConfigHash()
	r.env.Logf("EPOCH-ACTIVATE: epoch %d adopted via snapshot lineage (from epoch %d, config=%x, n=%d, quorum=%d)",
		final.Epoch, fromEpoch, cfgHash[:8], final.N(), final.Quorum())
	if r.cfg.OnEpochChange != nil {
		r.cfg.OnEpochChange(final.Clone(), r.epochRings[final.Epoch])
	}
	return nil
}

// recordAdoptedProof retains a lineage proof this node verified while
// catching up, subject to the same retention bound as live recording.
func (r *Replica) recordAdoptedProof(t *types.EpochTransition) {
	r.epochProofs[t.Epoch] = t
	for len(r.epochProofs) > maxEpochProofs {
		oldest := t.Epoch
		for e := range r.epochProofs {
			if e < oldest {
				oldest = e
			}
		}
		delete(r.epochProofs, oldest)
	}
}

// applyCommittedReconfig validates one committed reconfig command under
// the active epoch and schedules its epoch, reporting whether it was
// accepted.
func (r *Replica) applyCommittedReconfig(rc *types.Reconfig, at types.Height) bool {
	reject := func(why string) {
		r.m.reconfigsRejected.Inc()
		r.env.Logf("reconfig: %s %s(node=%d) at height %d rejected: %s",
			"committed", rc.Op, rc.Node, at, why)
	}
	if r.pending != nil {
		reject(fmt.Sprintf("epoch %d is already pending activation at height %d",
			r.pending.Epoch, r.pending.ActivateAt))
		return false
	}
	if !r.member.Contains(rc.Signer) {
		reject(fmt.Sprintf("signer %d is not a member of epoch %d", rc.Signer, r.member.Epoch))
		return false
	}
	if !r.svc.Verify(rc.Signer, types.ReconfigPayload(rc.Op, rc.Node, rc.Key, rc.Addr), rc.Sig) {
		reject(fmt.Sprintf("signature does not verify under epoch %d's ring", r.member.Epoch))
		return false
	}
	if len(rc.Key) > 0 {
		if _, err := r.cfg.Scheme.UnmarshalPublic(rc.Key); err != nil {
			reject(fmt.Sprintf("key does not decode: %v", err))
			return false
		}
	}
	next, err := r.member.Apply(rc, at+r.reconfigDelay())
	if err != nil {
		reject(err.Error())
		return false
	}
	r.pending = next
	r.obsPending.Store(next)
	r.m.reconfigsScheduled.Inc()
	if d := r.cfg.Durable; d != nil {
		d.SetEpochConfig(r.member.Epoch, r.member, next)
	}
	r.trace.Emit(obs.TraceEpoch, uint64(r.view), uint64(at),
		fmt.Sprintf("scheduled epoch=%d %s(node=%d) activate=%d", next.Epoch, rc.Op, rc.Node, next.ActivateAt))
	r.env.Logf("reconfig: epoch %d scheduled by %s(node=%d) committed at height %d; activates at height %d (n=%d, quorum=%d)",
		next.Epoch, rc.Op, rc.Node, at, next.ActivateAt, next.N(), next.Quorum())
	return true
}

// maybeActivateEpoch activates the pending epoch once the committed
// height reaches its activation height.
func (r *Replica) maybeActivateEpoch(committed types.Height) {
	if r.pending != nil && committed >= r.pending.ActivateAt {
		r.activateEpoch(committed)
	}
}

// activateEpoch performs the epoch transition: ring rebuild, service
// rekey, enclave config-hash sealing (which rotates the sealing key),
// membership swap, and the live-node rewiring callback. Failure leaves
// the old epoch active and fires the flight recorder — a node that
// cannot activate is about to diverge from the cluster and the evidence
// window matters.
func (r *Replica) activateEpoch(committed types.Height) {
	next := r.pending
	r.pending = nil
	r.obsPending.Store(nil)

	fail := func(why string) {
		r.env.Logf("reconfig: ACTIVATION FAILED for epoch %d at height %d: %s", next.Epoch, committed, why)
		r.flightTrigger("reconfig-activation-failure",
			fmt.Sprintf("epoch=%d height=%d %s", next.Epoch, committed, why))
	}
	ring, err := ringFromMembership(r.cfg.Scheme, next)
	if err != nil {
		fail(err.Error())
		return
	}
	cfgHash := next.ConfigHash()
	if err := r.enclave.AdvanceEpoch(uint64(next.Epoch), cfgHash); err != nil {
		fail(fmt.Sprintf("enclave refused the epoch: %v", err))
		return
	}
	r.member = next
	r.epochRings[next.Epoch] = ring
	if priv, ok := r.takeStagedKey(next); ok {
		r.svc.RekeyPriv(priv)
		r.teeSvc.RekeyPriv(priv)
	} else {
		r.adoptOwnKey() // r.member is already the activating epoch
	}
	r.svc.Rekey(ring)
	r.teeSvc.Rekey(ring)
	r.obsMember.Store(next)
	r.m.epochActivations.Inc()
	// Claims and stashed state from evicted members must not outlive
	// their epoch: a removed node's verified view claim could otherwise
	// keep counting toward view-sync quorums sized for the new epoch.
	for id := range r.viewClaims {
		if !next.Contains(id) {
			delete(r.viewClaims, id)
		}
	}
	// Reseal the durable marker under the new epoch's sealing key so
	// rollback detection survives the rotation without needing the
	// one-epoch grace path.
	if d := r.cfg.Durable; d != nil {
		d.SetEpochConfig(next.Epoch, next, nil)
		r.sealDurableMarker(r.durHeight)
	}
	r.trace.Emit(obs.TraceEpoch, uint64(r.view), uint64(committed),
		fmt.Sprintf("activated epoch=%d config=%x n=%d", next.Epoch, cfgHash[:4], next.N()))
	// The explicit activation log line (grep anchor for operators and
	// the soak harness).
	r.env.Logf("EPOCH-ACTIVATE: epoch %d active at height %d (config=%x, n=%d, quorum=%d, members=%v)",
		next.Epoch, committed, cfgHash[:8], next.N(), next.Quorum(), next.Members)
	if !next.Contains(r.cfg.Self) {
		r.env.Logf("reconfig: this node was removed in epoch %d; continuing as a learner", next.Epoch)
	}
	if eo, ok := r.cfg.Observer.(EpochObserver); ok {
		// Report the deterministic activation height, not the commit
		// height that happened to trigger it: commit batching makes the
		// trigger height vary per node, while ActivateAt is identical on
		// every honest replica — which is exactly what the invariant
		// checker's cross-node agreement test needs.
		eo.ObserveEpochActivate(r.cfg.Self, next.Epoch, next.ActivateAt, cfgHash, next.Members)
	}
	if r.cfg.OnEpochChange != nil {
		r.cfg.OnEpochChange(next.Clone(), ring)
	}
}

// ringFromMembership builds a key ring from an epoch's marshalled keys.
func ringFromMembership(scheme crypto.Scheme, m *types.Membership) (*crypto.KeyRing, error) {
	ring := crypto.NewKeyRing()
	for _, id := range m.Members {
		kb, ok := m.Keys[id]
		if !ok || len(kb) == 0 {
			return nil, fmt.Errorf("epoch %d has no key for member %d", m.Epoch, id)
		}
		pub, err := scheme.UnmarshalPublic(kb)
		if err != nil {
			return nil, fmt.Errorf("epoch %d key for member %d does not decode: %v", m.Epoch, id, err)
		}
		ring.Add(id, pub)
	}
	return ring, nil
}

// adoptRestoreMembership switches the replica's active configuration to
// a membership restored from durable state (a local or transferred
// snapshot), rebuilding the ring and rekeying the services so restored
// certificates are judged under the epoch that produced them.
func (r *Replica) adoptRestoreMembership(m *types.Membership, pending *types.Membership) error {
	m = m.Clone()
	ring, ok := r.epochRings[m.Epoch]
	if !ok {
		var err error
		ring, err = ringFromMembership(r.cfg.Scheme, m)
		if err != nil {
			return err
		}
	}
	// The enclave-sealed config hash is the authoritative record of the
	// epoch this node activated: a snapshot claiming the same epoch
	// under a different configuration is forged or corrupt.
	if r.enclave.Epoch() == uint64(m.Epoch) && uint64(m.Epoch) > 0 {
		if got := r.enclave.EpochConfigHash(); got != m.ConfigHash() {
			return fmt.Errorf("snapshot epoch %d config hash %x disagrees with the enclave-sealed %x",
				m.Epoch, m.ConfigHash(), got)
		}
	}
	r.member = m
	r.epochRings[m.Epoch] = ring
	r.svc.Rekey(ring)
	r.teeSvc.Rekey(ring)
	r.obsMember.Store(m)
	if pending != nil && pending.Epoch == m.Epoch+1 {
		r.pending = pending.Clone()
		r.obsPending.Store(r.pending)
	}
	if d := r.cfg.Durable; d != nil {
		d.SetEpochConfig(m.Epoch, m, r.pending)
	}
	return nil
}

// nextMemberAfter returns the next member after id in ascending ring
// order (wrapping), skipping this node — the peer-rotation order used
// when a snapshot fetch stalls. With the boot membership 0..n-1 this is
// the historical (id+1) mod n rotation.
func (r *Replica) nextMemberAfter(id types.NodeID) types.NodeID {
	mem := r.member.Members
	n := len(mem)
	if n == 0 {
		return id
	}
	// First member strictly greater than id, wrapping to the start.
	start := 0
	for i, m := range mem {
		if m > id {
			start = i
			break
		}
	}
	for k := 0; k < n; k++ {
		cand := mem[(start+k)%n]
		if cand != r.cfg.Self {
			return cand
		}
	}
	return id
}
