package core

// This file holds the replica's state-mutating step functions: the
// message and timer handlers that read and write consensus state
// (checker, ledger, mempool, pacemaker, the stash maps). Every function
// here runs on the single consensus goroutine — OnMessage/OnTimer are
// the only entry points, per the protocol.Env contract — which is what
// lets the bodies stay lock-free. Post-commit execution and client
// replies run inline at the bottom of handleCC.

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"achilles/internal/mempool"
	"achilles/internal/obs"
	"achilles/internal/types"
)

// enterNextView advances the checker one view and sends the resulting
// view certificate (plus the last commitment certificate, enabling the
// fast path) to the new leader.
func (r *Replica) enterNextView() {
	vc, err := r.chk.TEEview()
	if err != nil {
		return
	}
	// Abandon the in-flight pipeline window before anything else
	// touches the mempool: requeued transactions must be back in the
	// priority lane before this view's leader (possibly us, via the
	// self-delivered NEW-VIEW below) assembles its first batch.
	r.drainPipeline()
	r.view = vc.CurView
	r.obsView.Store(uint64(r.view))
	r.trace.Emit(obs.TraceNewView, uint64(r.view), uint64(r.obsHeight.Load()), "")
	// Forget stale sync requests; anything still needed will be
	// re-requested (possibly from a different peer). Cleared in place:
	// view changes are the hot path under faults, and reallocating the
	// per-view maps every view churns the allocator for nothing.
	clear(r.inflightSync)
	delete(r.viewCerts, r.view-2)
	// Drop stashed proposals for views we have moved past; they can
	// never be replayed (onProposal rejects below-view proposals).
	for v := range r.stashedProposals {
		if v < r.view {
			delete(r.stashedProposals, v)
		}
	}
	r.armViewTimer()
	msg := &MsgNewView{VC: vc}
	if r.lastCC != nil && r.lastCC.View == r.view-1 {
		msg.CC = r.lastCC
	}
	if r.pm.Failures() >= 2 {
		// Desynchronized: repeated timeouts mean the cluster's views
		// have drifted apart, and the linear leader-only announcement
		// cannot re-align nodes whose views leapfrog each other (the
		// laggard's certificate always arrives at a leader that has
		// already moved on). Announce to everyone so all nodes learn
		// each other's views and laggards can jump (maybeSyncViews).
		r.env.Broadcast(msg)
		if r.isLeader(r.view) {
			r.OnMessage(r.cfg.Self, msg)
		}
	} else {
		r.deliverOrSend(r.leaderOf(r.view), msg)
	}
	// Refresh outstanding recovery replies now that our view moved.
	r.refreshRecoveryReplies()
	// A proposal for this view may already be waiting.
	r.replayStashedProposals()
}

// drainPipeline abandons every in-flight round: uncommitted client
// transactions are requeued through the mempool's priority lane in
// height order (so re-proposal preserves their original order) and the
// window state is cleared in place. Called on every view transition
// and on recovery/snapshot adoption — any point where the in-flight
// proposals can no longer commit under the current chain anchor.
func (r *Replica) drainPipeline() {
	if len(r.rounds) > 0 {
		open := make([]*round, 0, len(r.rounds))
		for _, rd := range r.rounds {
			open = append(open, rd)
		}
		sort.Slice(open, func(i, j int) bool { return open[i].height < open[j].height })
		for _, rd := range open {
			if len(rd.txs) > 0 {
				// Requeue skips transactions that committed meanwhile.
				// Should an abandoned block still commit later via the
				// accumulator path, the dedup maps and the done-set skip
				// in NextBatch keep the duplicates off the chain, exactly
				// as they do for client retransmissions.
				r.pool.Requeue(rd.txs)
			}
		}
		clear(r.rounds)
	}
	r.pipeTip, r.pipeHeight = types.ZeroHash, 0
}

// pipelined reports whether the chained-pipelining hot path is active.
// At depth <= 1 every pipelining hook is a no-op and the replica runs
// the historical one-height-per-view sequence bit-exactly.
func (r *Replica) pipelined() bool { return r.cfg.PipelineDepth > 1 }

func (r *Replica) armViewTimer() {
	d := r.pm.Timeout()
	// Timers cannot be cancelled, only outlived: record the deadline so
	// OnTimer can tell this arming's firing from a stale earlier one
	// (pipelined commit progress re-arms the timer every commit).
	r.viewTimerDeadline = r.env.Now() + d
	r.env.SetTimer(d, types.TimerID{Kind: types.TimerViewChange, View: r.view})
}

// replayStashedProposals replays every stashed proposal for the
// current view in height order — parents before children, so a
// pipelined chain unblocks in one pass.
func (r *Replica) replayStashedProposals() {
	set := r.stashedProposals[r.view]
	if len(set) == 0 {
		return
	}
	delete(r.stashedProposals, r.view)
	hs := make([]types.Height, 0, len(set))
	for h := range set {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		m := set[h]
		r.onProposal(m.BC.Signer, m)
	}
}

// deliverOrSend routes a message, short-circuiting self-addressed
// traffic (a node does not use the network to talk to itself).
func (r *Replica) deliverOrSend(to types.NodeID, msg types.Message) {
	if to == r.cfg.Self {
		r.OnMessage(to, msg)
		return
	}
	r.env.Send(to, msg)
}

// OnMessage implements protocol.Replica.
func (r *Replica) OnMessage(from types.NodeID, msg types.Message) {
	if len(r.recoveryPending) > 0 && from != r.cfg.Self {
		// Any non-recovery message from a peer means it rejoined.
		if _, isReq := msg.(*MsgRecoveryReq); !isReq {
			delete(r.recoveryPending, from)
		}
	}
	switch m := msg.(type) {
	case *MsgRecoveryReq:
		r.onRecoveryReq(from, m)
	case *MsgRecoveryRpy:
		r.onRecoveryRpy(from, m)
	case *MsgNewView:
		r.onNewView(from, m)
	case *MsgProposal:
		r.onProposal(from, m)
	case *MsgVote:
		r.onVote(from, m)
	case *MsgDecide:
		r.onDecide(from, m)
	case *types.BlockRequest:
		r.onBlockRequest(from, m)
	case *types.BlockResponse:
		r.onBlockResponse(from, m)
	case *types.BlockUnavailable:
		r.onBlockUnavailable(from, m)
	case *types.SnapshotRequest:
		r.onSnapshotRequest(from, m)
	case *types.SnapshotChunk:
		r.onSnapshotChunk(from, m)
	case *types.ClientRequest:
		if !r.recovering {
			// Reconfig commands must reach the leader even when this
			// node never leads (stable-view pipelining): forward once,
			// before ordinary admission (epoch.go).
			r.forwardReconfigTxs(m.Txs)
			// Admission control, when configured, answers rejections
			// with explicit RETRY-AFTER backpressure instead of silent
			// queue growth.
			if res := r.pool.Add(m.Txs, r.env.Now()); res.Rejected() > 0 {
				r.sendRetries(res)
			}
			r.tryPropose()
		}
	}
}

// sendRetries surfaces admission rejections to the affected clients as
// types.ClientRetry messages, grouped per client and reason.
func (r *Replica) sendRetries(res mempool.AdmitResult) {
	r.m.admissionRetries.Add(uint64(res.Rejected()))
	full := groupByClient(res.RejectedFull)
	for _, c := range sortedClients(full) {
		r.env.Send(c, &types.ClientRetry{
			TxKeys: full[c], RetryAfter: res.RetryAfter, Reason: types.RetryPoolFull, From: r.cfg.Self,
		})
	}
	rate := groupByClient(res.RejectedRate)
	for _, c := range sortedClients(rate) {
		r.env.Send(c, &types.ClientRetry{
			TxKeys: rate[c], RetryAfter: res.RetryAfter, Reason: types.RetryRateLimited, From: r.cfg.Self,
		})
	}
}

// groupByClient buckets rejected transaction keys by their client so
// each client receives one ClientRetry per reason.
func groupByClient(keys []types.TxKey) map[types.NodeID][]types.TxKey {
	if len(keys) == 0 {
		return nil
	}
	out := make(map[types.NodeID][]types.TxKey)
	for _, k := range keys {
		out[k.Client] = append(out[k.Client], k)
	}
	return out
}

// sortedClients returns a per-client map's keys in ascending order.
// Client-bound sends must happen in a deterministic order: the
// simulator draws per-send network jitter from one seeded rng, so send
// order is part of the replayable schedule (map iteration is not).
func sortedClients(m map[types.NodeID][]types.TxKey) []types.NodeID {
	ids := make([]types.NodeID, 0, len(m))
	for c := range m {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// OnTimer implements protocol.Replica.
func (r *Replica) OnTimer(id types.TimerID) {
	switch id.Kind {
	case types.TimerViewChange:
		if r.recovering || id.View != r.view {
			return
		}
		// A timer armed before the most recent re-arm (pipelined commit
		// progress pushes the deadline instead of cancelling) is stale.
		if r.env.Now() < r.viewTimerDeadline {
			return
		}
		// A view that expired with an empty mempool is idle rotation,
		// not a failure: the backoff only grows when there was work to
		// order and the view still made no progress.
		if r.cfg.SyntheticWorkload || r.pool.Len() > 0 {
			r.pm.Expired()
			r.m.viewTimeouts.Inc()
			r.trace.Emit(obs.TraceViewChange, uint64(r.view), r.obsHeight.Load(), "timeout")
			r.flightTrigger("view-timeout", fmt.Sprintf("failures=%d", r.pm.Failures()))
			r.env.Logf("view %d timed out (failures=%d)", r.view, r.pm.Failures())
		}
		// In-flight proposals missed their view: enterNextView drains
		// the window, requeuing their client transactions through the
		// priority lane before the next leader slot assembles a batch.
		r.enterNextView()
	case types.TimerRecoveryRetry:
		if !r.recovering || id.View != r.recEpoch {
			return
		}
		r.startRecovery()
	case types.TimerSnapshotRetry:
		r.onSnapshotRetry(id)
	}
}

// --- normal-case operations -------------------------------------------

func (r *Replica) onNewView(from types.NodeID, m *MsgNewView) {
	if r.recovering {
		return
	}
	if m.CC != nil {
		r.handleCC(m.CC, from)
	}
	if m.VC != nil {
		vc := m.VC
		if vc.Signer != from && from != r.cfg.Self {
			return
		}
		// Window-bound acceptance keeps Byzantine senders from growing
		// the map with certificates for views far in the future.
		if vc.CurView >= r.view && vc.CurView < r.view+64 {
			set := r.viewCerts[vc.CurView]
			if set == nil {
				set = make(map[types.NodeID]*types.ViewCert)
				r.viewCerts[vc.CurView] = set
			}
			set[vc.Signer] = vc
		}
		// Track the peer's attested view for synchronization. Verify
		// the signature before believing a claim — forged certificates
		// must not move anyone's view.
		if vc.Signer != r.cfg.Self && vc.CurView > r.viewClaims[vc.Signer] &&
			vc.CurView > r.view && r.verifyViewCert(vc) {
			r.viewClaims[vc.Signer] = vc.CurView
			r.maybeSyncViews()
			if vc.CurView > r.view && r.pm.Failures() > 1 {
				// Still behind the claimant after any quorum jump, and
				// deep in backoff. One verified higher claim is not
				// enough to jump (f of them could be adversarial), but
				// it is proof this node lags the cluster: dampen the
				// backoff and re-arm the view timer so it catches up at
				// base pace instead of waiting out a multi-second
				// timeout the rest of the cluster has already left.
				r.pm.CatchUp()
				r.armViewTimer()
			}
		}
	}
	r.tryPropose()
}

// maybeSyncViews jumps this node forward when f+1 nodes (itself
// included) verifiably claim views at or above some v > view: at least
// one of the claimants is correct, so view v is genuinely underway and
// stepping one timeout at a time would only prolong the outage.
// Advancing our own checker is always safe — TEEview is monotone and
// signs nothing about past views — so this is purely a liveness
// mechanism; a lone Byzantine node spinning its checker far ahead
// cannot form the f+1 quorum and drags nobody.
func (r *Replica) maybeSyncViews() {
	if r.recovering {
		return
	}
	claims := []types.View{r.view}
	for id, v := range r.viewClaims {
		if id != r.cfg.Self {
			claims = append(claims, v)
		}
	}
	if len(claims) < r.quorum() {
		return
	}
	sort.Slice(claims, func(i, j int) bool { return claims[i] > claims[j] })
	target := claims[r.quorum()-1]
	if target <= r.view {
		return
	}
	r.env.Logf("view sync: jumping from view %d to %d (quorum-backed)", r.view, target)
	r.m.viewJumps.Inc()
	for r.chk.View() < target-1 {
		if _, err := r.chk.TEEview(); err != nil {
			return
		}
	}
	// Drop per-view state for the views being skipped.
	for v := range r.viewCerts {
		if v < target {
			delete(r.viewCerts, v)
		}
	}
	for v := range r.stashedProposals {
		if v < target {
			delete(r.stashedProposals, v)
		}
	}
	r.enterNextView()
}

// tryPropose attempts to propose in the current view: the first
// proposal of a view goes through the fast path (commitment
// certificate for view-1) or the accumulator path (f+1 view
// certificates for the current view); once the view's chain is
// anchored, refillWindow keeps up to PipelineDepth chained heights in
// flight.
func (r *Replica) tryPropose() {
	if r.recovering || !r.isLeader(r.view) {
		return
	}
	if r.chk.Proposed() {
		// Already anchored in this view; only the pipelined refill can
		// add more heights.
		r.refillWindow()
		return
	}
	if !r.cfg.SyntheticWorkload && r.pool.Len() == 0 {
		// Nothing to order; wait for client traffic (the view advances
		// by timeout while idle).
		return
	}
	// Fast path: extend the block committed in the previous view. Safe
	// only at depth 1, where a view certifies at most one block, so a
	// CC from view-1 IS that view's unique tip. A pipelined view forms
	// one CC per in-flight height: our lastCC may trail a higher CC
	// another node already committed, and extending it would fork that
	// height. Pipelined leaders therefore always re-anchor through the
	// view-certificate quorum below, whose intersection with any commit
	// quorum surfaces the highest prepared block.
	if !r.cfg.DisableFastPath && !r.pipelined() &&
		r.lastCC != nil && r.lastCC.View == r.view-1 {
		if ok, missing := r.store.HasAncestry(r.lastCC.Hash); ok {
			if r.propose(r.lastCC.Hash, nil, r.lastCC) {
				r.refillWindow()
			}
			return
		} else {
			r.requestBlock(missing, r.leaderOf(r.lastCC.View))
		}
	}
	// Accumulator path: f+1 view certificates for this view. View
	// certificates are verified on use (evicting forgeries) rather than
	// trusted as stored: a Byzantine peer can inject a NEW-VIEW with an
	// inflated PrepView and a garbage signature, and if it were blindly
	// selected as "best" every TEEaccum attempt for the view would fail,
	// stalling the leader until the view times out.
	for {
		set := r.viewCerts[r.view]
		if len(set) < r.quorum() {
			return
		}
		// Walk the set in signer order (ties on PrepView are common once
		// NEW-VIEWs are broadcast during desync): which certificate wins
		// must be a function of the set, not of map iteration order, or
		// identical seeded runs diverge.
		signers := make([]types.NodeID, 0, len(set))
		for id := range set {
			signers = append(signers, id)
		}
		sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
		var best *types.ViewCert
		for _, id := range signers {
			// "Highest" is lexicographic on (PrepView, PrepHeight),
			// matching TEEaccum: a pipelined view prepares several
			// heights, and a view-only comparison could hand TEEaccum a
			// best certificate it rejects as not highest.
			if vc := set[id]; best == nil || vc.PrepView > best.PrepView ||
				(vc.PrepView == best.PrepView && vc.PrepHeight > best.PrepHeight) {
				best = vc
			}
		}
		if !r.verifyViewCert(best) {
			delete(set, best.Signer)
			continue
		}
		if ok, missing := r.store.HasAncestry(best.PrepHash); !ok {
			r.requestBlock(missing, best.Signer)
			return
		}
		certs := make([]*types.ViewCert, 0, r.quorum())
		certs = append(certs, best)
		for _, id := range signers {
			if len(certs) == r.quorum() {
				break
			}
			vc, ok := set[id]
			if !ok || vc == best {
				continue
			}
			if !r.verifyViewCert(vc) {
				delete(set, id)
				continue
			}
			certs = append(certs, vc)
		}
		if len(certs) < r.quorum() {
			// Forgeries were evicted mid-selection; re-check the quorum.
			continue
		}
		acc, err := r.acc.TEEaccum(best, certs)
		if err != nil {
			r.env.Logf("TEEaccum failed: %v", err)
			return
		}
		if r.propose(acc.Hash, acc, nil) {
			r.refillWindow()
		}
		return
	}
}

func (r *Replica) haveQuorumCerts() bool {
	return len(r.viewCerts[r.view]) >= r.quorum()
}

// refillWindow tops the pipeline window back up to PipelineDepth by
// proposing chained blocks that extend this leader's own tip: the
// checker certifies the chain link (parent == its pipeline anchor,
// height == anchor height + 1) with no accumulator or commitment
// certificate needed, which is what lets height h+1 leave the leader
// before h has gathered its quorum. No-op at depth <= 1 — the
// historical one-height-per-view hot path — and for non-leaders.
func (r *Replica) refillWindow() {
	if !r.pipelined() || r.refilling || r.recovering || !r.isLeader(r.view) {
		return
	}
	r.refilling = true
	defer func() { r.refilling = false }()
	for len(r.rounds) < r.cfg.PipelineDepth && !r.pipeTip.IsZero() {
		if !r.cfg.SyntheticWorkload && r.pool.Len() == 0 {
			return
		}
		if !r.propose(r.pipeTip, nil, nil) {
			return
		}
	}
}

// propose creates, certifies and broadcasts a block extending
// parentHash, justified by exactly one of acc and cc (Algorithm 1,
// propose function) — or, when both are nil, by the checker's chained
// pipelining rule (the parent is this leader's own pipeline anchor).
// Returns whether a block was proposed; the window bookkeeping in
// refillWindow depends on it.
func (r *Replica) propose(parentHash types.Hash, acc *types.AccCert, cc *types.CommitCert) bool {
	parent := r.store.Get(parentHash)
	if parent == nil {
		return false
	}
	// The proposal starts a new causal chain: mint its trace context
	// before batch assembly so the mempool-wait observer and the
	// broadcast frames all carry it.
	ctx := r.mintProposalTrace()
	var batchT0 time.Time
	if ctx.Sampled {
		batchT0 = time.Now()
	}
	txs := r.pool.NextBatch(r.cfg.BatchSize, r.env.Now())
	var clientTxs []types.Transaction
	for i := range txs {
		if !txs[i].Client.IsSynthetic() {
			clientTxs = append(clientTxs, txs[i])
		}
	}
	op := r.machine.Execute(parent.Op, txs)
	if ctx.Sampled {
		r.observeSpan(ctx, obs.StageBatch, r.view, parent.Height+1, time.Since(batchT0), "")
	}
	b := &types.Block{
		Txs:      txs,
		Op:       op,
		Parent:   parentHash,
		View:     r.view,
		Height:   parent.Height + 1,
		Proposer: r.cfg.Self,
		Proposed: r.env.Now(),
	}
	h := b.Hash()
	bc, err := r.chk.TEEprepare(b, h, acc, cc)
	if err != nil {
		r.env.Logf("TEEprepare failed: %v", err)
		// The drawn transactions go back through the priority lane:
		// nothing proposed them, so nothing will ever requeue them.
		if len(clientTxs) > 0 {
			r.pool.Requeue(clientTxs)
		}
		return false
	}
	r.store.Add(b)
	r.prebBlock, r.prebBC, r.prebCC = b, bc, nil
	r.rounds[h] = &round{
		height: b.Height,
		votes:  make(map[types.NodeID]*types.StoreCert),
		txs:    clientTxs,
	}
	r.pipeTip, r.pipeHeight = h, b.Height
	r.observePropose(bc.View, bc.Height, bc.Hash)
	r.trace.Emit(obs.TracePropose, uint64(b.View), uint64(b.Height), shortHash(h))
	r.env.Broadcast(&MsgProposal{Block: b, BC: bc})
	// The propose stage ends with the broadcast; quorum assembly (our
	// own vote included) starts here.
	r.beginProposalTrace(ctx, b)
	// Vote for our own block.
	sc, err := r.chk.TEEstore(bc)
	if err != nil {
		return true
	}
	r.observeVote(sc.View, sc.Height, sc.Hash)
	r.onVote(r.cfg.Self, &MsgVote{SC: sc})
	return true
}

func (r *Replica) onProposal(from types.NodeID, m *MsgProposal) {
	if r.recovering {
		return
	}
	b, bc := m.Block, m.BC
	if b == nil || bc == nil || b.Hash() != bc.Hash || b.View != bc.View {
		return
	}
	if bc.Signer != r.leaderOf(bc.View) || b.Proposer != bc.Signer {
		return
	}
	switch {
	case bc.View < r.view:
		return
	case bc.View > r.view:
		// We have not advanced yet (the DECIDE that moves us is in
		// flight); keep the proposal for when we do. The window and the
		// total stash bound keep Byzantine leaders from exhausting
		// memory.
		if bc.View < r.view+64 {
			r.stashProposal(m)
		}
		return
	}
	// Block validity (Sec. 4.4): ancestry available and execution
	// results correct.
	if ok, missing := r.store.HasAncestry(b.Parent); !ok {
		r.requestBlock(missing, from)
		r.stashProposal(m)
		return
	}
	parent := r.store.Get(b.Parent)
	if parent == nil || b.Height != parent.Height+1 {
		return
	}
	if op := r.machine.Execute(parent.Op, b.Txs); !bytes.Equal(op, b.Op) {
		r.env.Logf("proposal with invalid execution results from %v", from)
		return
	}
	sc, err := r.chk.TEEstore(bc)
	if err != nil {
		return
	}
	r.store.Add(b)
	r.prebBlock, r.prebBC, r.prebCC = b, bc, nil
	r.observeVote(sc.View, sc.Height, sc.Hash)
	r.trace.Emit(obs.TraceVote, uint64(bc.View), uint64(b.Height), shortHash(bc.Hash))
	r.deliverOrSend(r.leaderOf(bc.View), &MsgVote{SC: sc})
	if r.pipelined() {
		// A pipelined leader's next height may have arrived first (the
		// network does not preserve broadcast order) and been stashed
		// waiting for this block; replay it now that its parent is
		// stored.
		r.replayStashedChild(b)
	}
}

// replayStashedChild replays the stashed current-view proposal that
// directly extends parent, if any. Chains recurse through onProposal:
// each replayed child replays its own successor once stored.
func (r *Replica) replayStashedChild(parent *types.Block) {
	set := r.stashedProposals[r.view]
	m, ok := set[parent.Height+1]
	if !ok {
		return
	}
	delete(set, parent.Height+1)
	if len(set) == 0 {
		delete(r.stashedProposals, r.view)
	}
	r.onProposal(m.BC.Signer, m)
}

// stashProposal inserts a proposal into the bounded stash, keyed by
// (view, height). Same-slot arrivals replace in place; when the stash
// is full, the farthest future slot — lexicographic on (view, height)
// — is evicted in favor of a nearer one (nearer slots are the ones
// replay will actually consume) and proposals farther than everything
// held are dropped.
func (r *Replica) stashProposal(m *MsgProposal) {
	v, h := m.BC.View, m.Block.Height
	if set, ok := r.stashedProposals[v]; ok {
		if _, ok := set[h]; ok {
			set[h] = m
			return
		}
	}
	total := 0
	for _, set := range r.stashedProposals {
		total += len(set)
	}
	if total >= maxStashedProposals {
		var fv types.View
		var fh types.Height
		for sv, set := range r.stashedProposals {
			for sh := range set {
				if sv > fv || (sv == fv && sh > fh) {
					fv, fh = sv, sh
				}
			}
		}
		if fv < v || (fv == v && fh <= h) {
			r.m.stashDrops.Inc()
			return
		}
		delete(r.stashedProposals[fv], fh)
		if len(r.stashedProposals[fv]) == 0 {
			delete(r.stashedProposals, fv)
		}
		r.m.stashDrops.Inc()
	}
	set := r.stashedProposals[v]
	if set == nil {
		set = make(map[types.Height]*MsgProposal, 1)
		r.stashedProposals[v] = set
	}
	set[h] = m
}

func (r *Replica) onVote(from types.NodeID, m *MsgVote) {
	if r.recovering {
		return
	}
	sc := m.SC
	if sc == nil || sc.Signer != from || sc.View != r.view || !r.isLeader(r.view) {
		return
	}
	// The vote names its round by block hash; no open round means the
	// vote is stale (its block committed or the window drained).
	rd := r.rounds[sc.Hash]
	if rd == nil || rd.decided || sc.Height != rd.height || rd.votes[sc.Signer] != nil {
		return
	}
	// Our own store certificate needs no re-verification; peers' do.
	if sc.Signer != r.cfg.Self &&
		!r.svc.Verify(sc.Signer, types.StoreCertPayload(sc.Hash, sc.View, sc.Height), sc.Sig) {
		return
	}
	rd.votes[sc.Signer] = sc
	if len(rd.votes) < r.quorum() {
		return
	}
	rd.decided = true
	r.finishQuorumTrace()
	signers := make([]types.NodeID, 0, len(rd.votes))
	sigs := make([]types.Signature, 0, len(rd.votes))
	for id, v := range rd.votes {
		signers = append(signers, id)
		sigs = append(sigs, v.Sig)
	}
	cc := &types.CommitCert{Hash: sc.Hash, View: sc.View, Height: sc.Height, Signers: signers, Sigs: sigs}
	r.env.Broadcast(&MsgDecide{CC: cc})
	r.handleCC(cc, r.cfg.Self)
}

func (r *Replica) onDecide(from types.NodeID, m *MsgDecide) {
	if r.recovering || m.CC == nil {
		return
	}
	r.handleCC(m.CC, from)
}

// handleCC processes a commitment certificate: it verifies it, commits
// the certified block (and uncommitted ancestors, per the chained
// commit rule), executes it and replies to its clients, and advances
// into the next view.
func (r *Replica) handleCC(cc *types.CommitCert, from types.NodeID) {
	if r.store.IsCommitted(cc.Hash) {
		return
	}
	if len(cc.Signers) < r.quorum() {
		return
	}
	// No host-side signature check here: TEEstoreCommit verifies the
	// certificate inside the enclave before any state changes, and the
	// ledger only commits after it succeeds.
	if ok, missing := r.store.HasAncestry(cc.Hash); !ok {
		r.requestBlock(missing, from)
		r.stashCC(cc)
		return
	}
	if err := r.chk.TEEstoreCommit(cc); err != nil {
		return
	}
	newly, err := r.store.Commit(cc.Hash)
	if err != nil {
		r.env.Logf("SAFETY ALARM: %v", err)
		return
	}
	b := r.store.Get(cc.Hash)
	r.prebBlock, r.prebCC = b, cc
	if r.prebBC != nil && r.prebBC.Hash != cc.Hash {
		r.prebBC = nil
	}
	// lastCC tracks the certified chain tip, lexicographic on (view,
	// height): a pipelined view certifies several heights, and keeping
	// only the first would anchor the next view's fast path on a stale
	// parent.
	if r.lastCC == nil || cc.View > r.lastCC.View ||
		(cc.View == r.lastCC.View && cc.Height > r.lastCC.Height) {
		r.lastCC = cc
	}
	now := r.env.Now()
	tctx := r.traceCtx()
	for _, nb := range newly {
		// The committed block's round (if we led it) leaves the window;
		// a chained commit retires every ancestor's round with it.
		delete(r.rounds, nb.Hash())
		// The commit observer (execute), mempool bookkeeping and client
		// replies (egress) run inline on the consensus goroutine, in
		// height order.
		r.runSpan(tctx, obs.StageExecute, cc.View, nb.Height, func() { r.env.Commit(nb, cc) })
		r.pool.MarkCommitted(nb.Txs)
		r.runSpan(tctx, obs.StageEgress, cc.View, nb.Height, func() { r.replyClients(nb, cc) })
		r.m.commits.Inc()
		r.m.committedTxs.Add(uint64(len(nb.Txs)))
		// Latency only for self-proposed blocks: on the live path every
		// process measures time on its own clock, so cross-node
		// (Proposed, committed) pairs are skewed and meaningless.
		if nb.Proposer == r.cfg.Self {
			r.m.commitLatency.ObserveDuration(time.Duration(now - nb.Proposed))
			r.finishCommitTrace(cc, nb, now)
		}
	}
	r.obsHeight.Store(uint64(r.store.CommittedHeight()))
	r.obsLastCommit.Store(int64(now))
	r.trace.Emit(obs.TraceCommit, uint64(cc.View), uint64(b.Height), shortHash(cc.Hash))
	// Durability rides after the in-memory commit: WAL-append the batch
	// and checkpoint a snapshot when the interval elapsed (both no-ops
	// without a configured Durable).
	r.persistCommits(newly, cc)
	r.maybeSnapshot(b, cc)
	// Chain-driven reconfiguration (epoch.go): committed reconfig
	// commands schedule the next epoch, and the epoch activates once the
	// committed height reaches its activation height — before the view
	// advance below, so the next view is entered under the new epoch's
	// leader rotation and quorum rules.
	epochBefore := r.member.Epoch
	r.scanReconfigs(newly, cc)
	r.maybeActivateEpoch(r.store.CommittedHeight())
	if cc.View >= r.view {
		r.pm.Progress()
		if r.pipelined() && cc.View == r.view && r.member.Epoch == epochBefore &&
			len(r.recoveryPending) == 0 {
			// Stable-view pipelining: a commit is progress, not a view
			// transition. Keep the leader, push the view-timer deadline,
			// and slide the window (the leader refills through
			// tryPropose). The view still advances on timeout, on epoch
			// activation (the new epoch re-anchors leader rotation and
			// quorum under a drained window), and when the certificate
			// proves the cluster is ahead of us. While a peer's recovery
			// request is pending, commits take the enterNextView branch
			// instead: a recovering node can only rejoin once it holds a
			// reply from a node that leads its own attested view
			// (Algorithm 3), and under a permanently stable view — whose
			// leader may be the very node whose replies it cannot use —
			// that reply might never exist. Rotating per commit at the
			// depth-1 cadence until the victim is back guarantees honest
			// leaders cycle through, and every view advance re-sends our
			// reply (refreshRecoveryReplies).
			r.armViewTimer()
			r.tryPropose()
		} else {
			r.enterNextView()
		}
	}
	// Periodically drop old block bodies past the retention horizon
	// (certificate verification never needs them again).
	retain := types.Height(r.cfg.RetainHeights)
	interval := types.Height(r.cfg.PruneInterval)
	if r.store.CommittedHeight()%interval == 0 && r.store.CommittedHeight() > retain {
		r.store.PruneBefore(r.store.CommittedHeight() - retain)
	}
}

// stashCC keeps a commitment certificate whose ancestry is still being
// fetched. Duplicates are deliberately kept — replay is idempotent,
// and dropping them would change the deterministic replay trace the
// golden-hash tests pin (each replayed duplicate consumes one
// requestBlock retry-budget tick, exactly as it always has). The stash
// is bounded; when full, the oldest entry is evicted in favor of the
// newcomer (newer certificates are the ones still worth replaying, and
// dropping one costs only liveness — block sync re-delivers commitment
// evidence).
func (r *Replica) stashCC(cc *types.CommitCert) {
	if len(r.stashedCCs) >= maxStashedCCs {
		copy(r.stashedCCs, r.stashedCCs[1:])
		r.stashedCCs = r.stashedCCs[:len(r.stashedCCs)-1]
		r.m.stashDrops.Inc()
	}
	r.stashedCCs = append(r.stashedCCs, cc)
}

// replyClients sends one certified reply per real client with
// transactions in the committed block (reply responsiveness, Sec. 6.1:
// a single verifiable reply suffices).
func (r *Replica) replyClients(b *types.Block, cc *types.CommitCert) {
	var perClient map[types.NodeID][]types.TxKey
	for i := range b.Txs {
		c := b.Txs[i].Client
		if c.IsSynthetic() || !c.IsClient() {
			continue
		}
		if perClient == nil {
			perClient = make(map[types.NodeID][]types.TxKey)
		}
		perClient[c] = append(perClient[c], b.Txs[i].Key())
	}
	for _, c := range sortedClients(perClient) {
		r.env.Send(c, &types.ClientReply{
			Block: b.Hash(), View: cc.View, Height: b.Height,
			TxKeys: perClient[c], Certified: true, From: r.cfg.Self,
		})
	}
}

// --- block synchronization ---------------------------------------------

// syncRetryBudget is how many duplicate triggers (e.g. successive
// DECIDEs naming the same missing ancestor) are absorbed before a
// block request is re-sent. Over lossy links a request or response
// frame can vanish; without a bounded budget the in-flight marker
// would suppress re-requests until the next view change, wedging
// catch-up behind an exponentially backed-off view timer.
const syncRetryBudget = 4

func (r *Replica) requestBlock(h types.Hash, from types.NodeID) {
	if from == r.cfg.Self || h.IsZero() {
		return
	}
	if budget, inflight := r.inflightSync[h]; inflight {
		if budget > 0 {
			r.inflightSync[h] = budget - 1
			return
		}
		// Budget exhausted: the request or its response likely vanished
		// on a lossy link; re-send rather than wedge behind the view
		// timer.
		r.m.syncRerequests.Inc()
	}
	r.m.syncRequests.Inc()
	r.trace.Emit(obs.TraceBlockSync, uint64(r.view), r.obsHeight.Load(), shortHash(h))
	r.inflightSync[h] = syncRetryBudget
	r.env.Send(from, &types.BlockRequest{Hash: h, From: r.cfg.Self})
}

func (r *Replica) onBlockRequest(from types.NodeID, m *types.BlockRequest) {
	if r.recovering {
		return
	}
	if b := r.store.Get(m.Hash); b != nil {
		r.env.Send(from, &types.BlockResponse{Block: b})
		return
	}
	if r.store.IsCommitted(m.Hash) {
		// Committed but the body is pruned: the requester is past our
		// retention horizon and block sync cannot serve it. Answer with
		// the typed signal so it pivots to a snapshot fetch instead of
		// wedging until its view timer fires.
		r.m.pastHorizonReplies.Inc()
		r.env.Send(from, &types.BlockUnavailable{
			Hash: m.Hash, PastHorizon: true,
			Height: r.store.CommittedHeight(), From: r.cfg.Self,
		})
	}
}

func (r *Replica) onBlockResponse(from types.NodeID, m *types.BlockResponse) {
	if m.Block == nil {
		return
	}
	h := m.Block.Hash()
	if r.inflightSync[h] == 0 {
		return
	}
	delete(r.inflightSync, h)
	r.store.Add(m.Block)
	// Continue walking toward the committed chain if needed.
	if ok, missing := r.store.HasAncestry(h); !ok {
		r.requestBlock(missing, from)
	}
	r.resumeStashed(from)
}

// resumeStashed retries work that was blocked on missing ancestors.
func (r *Replica) resumeStashed(from types.NodeID) {
	if r.recovering {
		return
	}
	if len(r.stashedCCs) > 0 {
		ccs := r.stashedCCs
		r.stashedCCs = nil
		for _, cc := range ccs {
			if !r.store.IsCommitted(cc.Hash) {
				r.handleCC(cc, from)
			}
		}
	}
	r.replayStashedProposals()
	r.tryPropose()
}
