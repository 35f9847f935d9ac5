package core_test

import (
	"testing"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/obs"
	"achilles/internal/types"
)

// signedRequest builds node id's recovery request, signed under the
// miniNet key of id.
func signedRequest(id types.NodeID, nonce uint64) *core.MsgRecoveryReq {
	scheme := crypto.FastScheme{}
	priv, _ := scheme.KeyPair(3, id)
	return &core.MsgRecoveryReq{Req: &types.RecoveryReq{
		Nonce: nonce, Signer: id, Sig: scheme.Sign(priv, types.RecoveryReqPayload(nonce)),
	}}
}

// TestRecoveryRequestFromNonLeaderKeepsView: a peer that does not lead
// the receiver's view gets its reply, and the receiver stays put.
func TestRecoveryRequestFromNonLeaderKeepsView(t *testing.T) {
	m := newMiniNet(t, 3, 1, false) // idle: views advance only by timeout
	m.start()
	r, env := m.reps[0], m.envs[0]
	v := r.View()
	leader := r.Membership().Leader(v)
	for _, from := range []types.NodeID{1, 2} {
		if from == leader {
			continue
		}
		env.Reset()
		r.OnMessage(from, signedRequest(from, 1))
		if r.View() != v {
			t.Fatalf("request from non-leader %v moved the view from %d to %d", from, v, r.View())
		}
		replied := false
		for _, msg := range env.SentTo(from) {
			if _, ok := msg.(*core.MsgRecoveryRpy); ok {
				replied = true
			}
		}
		if !replied {
			t.Fatalf("request from non-leader %v got no reply", from)
		}
	}
}

// TestRecoveryRequestFromLeaderSkipsView: the leader's own request moves
// the receiver into the next view at once. The skip is traced and
// logged, but it is not a timeout: the timeout counter stays at zero
// and the next view timer keeps the base duration (no backoff).
func TestRecoveryRequestFromLeaderSkipsView(t *testing.T) {
	regs := map[types.NodeID]*obs.Registry{}
	tracers := map[types.NodeID]*obs.Tracer{}
	m := newMiniNetWith(t, 3, 1, false, 0, func(cfg *core.Config) {
		regs[cfg.Self], tracers[cfg.Self] = obs.NewRegistry(), obs.NewTracer(64)
		cfg.Obs, cfg.Trace = regs[cfg.Self], tracers[cfg.Self]
	})
	m.start()
	v := m.reps[0].View()
	leader := m.reps[0].Membership().Leader(v)
	self := (leader + 1) % 3
	r, env := m.reps[self], m.envs[self]
	env.Reset()
	r.OnMessage(leader, signedRequest(leader, 1))
	if r.View() != v+1 {
		t.Fatalf("view after the leader's request = %d, want %d", r.View(), v+1)
	}
	if n, _ := regs[self].Value("achilles_view_timeouts_total"); n != 0 {
		t.Fatalf("skip counted as %v view timeouts", n)
	}
	var timer *types.TimerID
	var after time.Duration
	for _, tm := range env.Timers {
		if tm.ID.Kind == types.TimerViewChange {
			timer, after = &tm.ID, tm.At-env.Now()
		}
	}
	if timer == nil || timer.View != v+1 || after != 100*time.Millisecond {
		t.Fatalf("view timer after the skip: %+v in %v, want view %d in the 100ms base timeout", timer, after, v+1)
	}
	traced := false
	for _, ev := range tracers[self].Dump(0) {
		if ev.Kind == obs.TraceViewChange && ev.Detail == "leader-recovering" && ev.View == uint64(v) {
			traced = true
		}
	}
	if !traced {
		t.Fatal("skip emitted no view-change trace event with detail leader-recovering")
	}
	if len(env.Logs) == 0 {
		t.Fatal("skip logged nothing")
	}
}
