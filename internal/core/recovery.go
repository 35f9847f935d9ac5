package core

import (
	"fmt"
	"sort"
	"time"

	"achilles/internal/obs"
	"achilles/internal/types"
)

// This file implements the replica-side driver of the rollback
// resilient recovery protocol (Algorithm 3). The TEE-side checks live
// in checker.TEErequest/TEEreply/TEErecover.
//
// A recovering node:
//
//  1. broadcasts ⟨REQ, non⟩σ from TEErequest;
//  2. collects replies ⟨b, φ_b, φ_c, φ_rpy⟩ from peers;
//  3. once it holds f+1 replies whose highest-view reply was signed by
//     that view's leader, calls TEErecover, adopts the leader's stored
//     block as preb, jumps to view v'+2 and rejoins with a NEW-VIEW.
//
// The constraint cannot be met while the live nodes sit in a view the
// recovering node itself leads: nobody else can speak for that view.
// Three implementation refinements keep recovery to a few message
// delays (all instances of the paper's "send new recovery requests ...
// in a given period" rule):
//
//   - a live node that accepts a request from the leader of its own
//     current view leaves that view at once (onRecoveryReq): the
//     requester's enclave is in recovery mode and cannot prepare a
//     block there, so the view can only time out. The next view's
//     leader then re-sends its reply (below), which is leader-backed;
//   - peers that answered a recovery request re-send their reply the
//     next few times their view advances, so the recovering node
//     observes the cluster exactly when it leaves a view and a live
//     leader's reply becomes usable;
//   - the request is drawn from TEErequest once per incarnation and
//     retries re-broadcast it, so replies still in flight on slow links
//     stay usable. Retry delays are staggered across attempts so that
//     they do not phase-lock onto views that stall for other reasons.

// startRecovery broadcasts this incarnation's recovery request to all
// peers and arms the retry timer. Only the first call draws a request
// from TEErequest; a retry re-sends it and keeps the replies collected
// so far, because a fresh nonce would void every reply still in flight.
// Every reply to the one request postdates the reboot, which is all
// the nonce has to prove.
func (r *Replica) startRecovery() {
	if r.recReq == nil {
		req, err := r.chk.TEErequest()
		if err != nil {
			return
		}
		r.recReq = req
	}
	r.recEpoch++
	r.m.recoveryAttempts.Inc()
	r.trace.Emit(obs.TraceRecoveryStart, uint64(r.view), r.obsHeight.Load(),
		fmt.Sprintf("epoch=%d", r.recEpoch))
	r.flightTrigger("recovery", fmt.Sprintf("epoch=%d", r.recEpoch))
	r.env.Broadcast(&MsgRecoveryReq{Req: r.recReq})
	// Bounded exponential backoff: the retry period doubles every four
	// attempts and caps at 4x the base, so a victim facing f lying (or
	// silent) peers neither floods the cluster with requests nor waits
	// unboundedly once honest replies become available. The stagger term
	// keeps retries from phase-locking onto stalled view windows.
	base := r.cfg.RecoveryRetry
	mult := time.Duration(1) << min(uint64(r.recEpoch)/4, 2)
	delay := base*mult/2 + time.Duration(uint64(r.recEpoch)%8)*base/8
	r.env.SetTimer(delay, types.TimerID{Kind: types.TimerRecoveryRetry, View: r.recEpoch})
}

// onRecoveryReq answers a peer's recovery request with this node's
// checker attestation and latest stored block, then leaves the current
// view if the requester leads it. Recovering nodes must not answer
// (they do not know their own state yet); the checker enforces this
// too.
func (r *Replica) onRecoveryReq(from types.NodeID, m *MsgRecoveryReq) {
	if r.recovering || m.Req == nil || m.Req.Signer != from {
		return
	}
	rpy, err := r.chk.TEEreply(m.Req)
	if err != nil {
		return
	}
	if !r.cfg.DisableReReply {
		// A fresh nonce supersedes the pending entry; a replayed request
		// with the nonce we are already serving must not reset the
		// re-reply budget, or a replay loop turns each stored request
		// into an unbounded reply amplifier.
		if p, ok := r.recoveryPending[from]; !ok || p.req.Nonce != m.Req.Nonce {
			r.recoveryPending[from] = &pendingRecovery{req: m.Req, remaining: 8}
		}
	}
	r.m.recoveryServed.Inc()
	r.observeReplyAttested(rpy)
	r.env.Send(from, &MsgRecoveryRpy{Rpy: rpy, Block: r.prebBlock, BC: r.prebBC, CC: r.prebCC})
	if from != r.leaderOf(r.view) {
		return
	}
	// The leader of our view is recovering: its enclave cannot prepare
	// a block here, so the view could only time out. Leave it now. This
	// is safe because advancing a checker's view is always allowed
	// (TEEview is monotone) and from is authenticated, so only the
	// leader itself can make us skip its view. The skip is not a
	// timeout: neither the timeout counter nor the pacemaker backoff
	// moves. enterNextView re-sends the pending reply with the new view,
	// which the next view's leader makes leader-backed.
	r.trace.Emit(obs.TraceViewChange, uint64(r.view), r.obsHeight.Load(), "leader-recovering")
	r.env.Logf("view %d skipped: leader %d is recovering", r.view, from)
	r.enterNextView()
}

// refreshRecoveryReplies re-answers outstanding recovery requests
// after a view advance (see the package comment above).
func (r *Replica) refreshRecoveryReplies() {
	if len(r.recoveryPending) == 0 || r.recovering {
		return
	}
	// Iterate in node order: the simulator draws per-send link latency
	// from its seeded rng, so map-order sends would make otherwise
	// identical runs diverge.
	ids := make([]types.NodeID, 0, len(r.recoveryPending))
	for id := range r.recoveryPending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := r.recoveryPending[id]
		p.remaining--
		if p.remaining <= 0 {
			delete(r.recoveryPending, id)
		}
		rpy, err := r.chk.TEEreply(p.req)
		if err != nil {
			delete(r.recoveryPending, id)
			continue
		}
		r.observeReplyAttested(rpy)
		r.env.Send(id, &MsgRecoveryRpy{Rpy: rpy, Block: r.prebBlock, BC: r.prebBC, CC: r.prebCC})
	}
}

// onRecoveryRpy records a recovery reply and attempts to finish
// recovery.
func (r *Replica) onRecoveryRpy(from types.NodeID, m *MsgRecoveryRpy) {
	if !r.recovering || m.Rpy == nil {
		return
	}
	rpy := m.Rpy
	if r.recReq == nil || rpy.Signer != from || rpy.Target != r.cfg.Self || rpy.Nonce != r.recReq.Nonce {
		return
	}
	// Verify the attestation signature on the host before storing the
	// reply: TEErecover would reject a forged reply anyway, but only
	// after it has displaced an honest one in recReplies — f lying
	// peers could otherwise keep the reply set permanently unusable.
	if !r.svc.Verify(rpy.Signer,
		types.RecoveryRpyPayload(rpy.PrepHash, rpy.PrepView, rpy.PrepHeight, rpy.CurView, rpy.Target, rpy.Nonce),
		rpy.Sig) {
		r.m.recoveryRejected.Inc()
		r.env.Logf("recovery reply from %d rejected: bad attestation signature", from)
		return
	}
	// The attachments ⟨b, φ_b, φ_c⟩ must be consistent with the attested
	// (prepv, preph): a peer cannot pair an honest attestation with a
	// forged block or certificate.
	if m.Block != nil && m.Block.Hash() != rpy.PrepHash {
		r.m.recoveryRejected.Inc()
		return
	}
	if bc := m.BC; bc != nil {
		if m.Block == nil || bc.Hash != rpy.PrepHash || bc.View != rpy.PrepView ||
			bc.Signer != r.leaderOf(bc.View) ||
			!r.svc.Verify(bc.Signer, types.BlockCertPayload(bc.Hash, bc.View, bc.Height), bc.Sig) {
			r.m.recoveryRejected.Inc()
			return
		}
	}
	if cc := m.CC; cc != nil {
		if len(cc.Signers) < r.quorum() ||
			!r.svc.VerifyQuorum(cc.Signers, types.StoreCertPayload(cc.Hash, cc.View, cc.Height), cc.Sigs) {
			r.m.recoveryRejected.Inc()
			return
		}
	}
	r.recReplies[from] = m
	r.m.recoveryReplies.Inc()
	r.trace.Emit(obs.TraceRecoveryReply, uint64(rpy.CurView), r.obsHeight.Load(),
		fmt.Sprintf("from=%d", from))
	r.tryFinishRecovery()
}

// tryFinishRecovery checks Algorithm 3's completion condition and, if
// met, restores the checker through TEErecover and rejoins the
// protocol.
func (r *Replica) tryFinishRecovery() {
	if len(r.recReplies) < r.quorum() {
		return
	}
	// The highest-view reply handed to TEErecover must come from that
	// view's leader (Sec. 4.5). Rather than requiring the global maximum
	// over everything received — which lets a single reply with an
	// inflated view stall recovery forever — pick the best leader-backed
	// reply and build the quorum only from replies at or below its view.
	// This is safe by quorum intersection: if this node ever voted in a
	// view w, then f+1 peers (minus itself, f non-victim nodes) were at
	// view >= w-1, so any f+1 distinct repliers include one of them and
	// the best leader-backed view is >= w-1, putting the recovered view
	// leaderView+2 strictly above w.
	var leaderMsg *MsgRecoveryRpy
	for _, m := range r.recReplies {
		if r.leaderOf(m.Rpy.CurView) == m.Rpy.Signer {
			if leaderMsg == nil || m.Rpy.CurView > leaderMsg.Rpy.CurView {
				leaderMsg = m
			}
		}
	}
	if leaderMsg == nil {
		// No usable leader reply yet; wait for more replies or retry.
		return
	}
	// Fill the quorum in node order so the reply set handed to
	// TEErecover — and everything downstream of it — is a pure function
	// of the replies received, not of map iteration order.
	froms := make([]types.NodeID, 0, len(r.recReplies))
	for id := range r.recReplies {
		froms = append(froms, id)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	handed := make([]*MsgRecoveryRpy, 0, r.quorum())
	handed = append(handed, leaderMsg)
	for _, id := range froms {
		if len(handed) == r.quorum() {
			break
		}
		if m := r.recReplies[id]; m != leaderMsg && m.Rpy.CurView <= leaderMsg.Rpy.CurView {
			handed = append(handed, m)
		}
	}
	if len(handed) < r.quorum() {
		return
	}
	replies := make([]*types.RecoveryRpy, len(handed))
	// TEErecover adopts the highest prepared state among the replies;
	// adopt the matching reply's block attachments as preb ⟨b, φ_b, φ_c⟩
	// so the host-side stored block agrees with the attestation.
	prepMsg := handed[0]
	for i, m := range handed {
		replies[i] = m.Rpy
		if m.Rpy.PrepView > prepMsg.Rpy.PrepView {
			prepMsg = m
		}
	}
	vc, err := r.chk.TEErecover(leaderMsg.Rpy, replies)
	if err != nil {
		r.env.Logf("TEErecover rejected: %v", err)
		return
	}
	if b := prepMsg.Block; b != nil {
		r.store.Add(b)
		r.prebBlock = b
		r.prebBC = prepMsg.BC
		r.prebCC = nil
		if cc := prepMsg.CC; cc != nil && cc.Hash == b.Hash() {
			r.prebCC = cc
		}
	}
	r.recovering = false
	r.recoverEndAt = r.env.Now()
	r.view = vc.CurView
	r.obsRecovering.Store(false)
	r.obsRecoverNanos.Store(int64(r.recoverEndAt - r.initEndAt))
	r.obsView.Store(uint64(r.view))
	r.m.recoveriesDone.Inc()
	r.observeRecovered(vc.CurView, leaderMsg.Rpy.CurView, leaderMsg.Rpy.Signer)
	r.trace.Emit(obs.TraceRecoveryDone, uint64(r.view), r.obsHeight.Load(),
		fmt.Sprintf("epoch=%d", r.recEpoch))
	r.drainPipeline()
	r.pm.Progress()
	r.armViewTimer()
	r.deliverOrSend(r.leaderOf(r.view), &MsgNewView{VC: vc})
	// Catch up the committed chain using the adopted commitment
	// certificate (ancestors are pulled via block sync as needed).
	if r.prebCC != nil {
		r.handleCC(r.prebCC, leaderMsg.Rpy.Signer)
	}
	r.env.Logf("recovery complete: rejoined at view %d", r.view)
}
