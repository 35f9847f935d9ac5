package core

// This file is the replica's end of the causal-tracing subsystem
// (internal/obs span layer). The replica mints one trace context per
// proposal it leads, hands it to the env's trace-context carrier so
// every frame sent while handling the proposal's messages carries it,
// and records the spans that attribute the commit path:
//
//	mempool-wait → batch → propose → quorum-assembly → tee-ecall
//	   → commit → execute → egress-reply
//
// The leader-path trio propose / quorum-assembly / commit is measured
// on the env clock (the same clock as achilles_commit_latency_seconds)
// and tiles the proposed→committed interval exactly, which is what the
// trace-breakdown bench's coverage check relies on. Everything here is
// gated on cfg.Spans and the sampled bit: with tracing off the hot
// path pays a nil check per site and nothing else.

import (
	"time"

	"achilles/internal/obs"
	"achilles/internal/types"
)

// traceEnv is the optional trace-context carrier an env may implement.
// The live transport.Runtime does: contexts stored here ride outbound
// frames. The simulator does not, so under deterministic replay every
// assertion below fails once at Init and tracing is inert.
type traceEnv interface {
	SetTraceContext(types.TraceContext)
	TraceContext() types.TraceContext
}

// traceCtx returns the trace context of the work currently being
// handled: the inbound frame's context (the transport sets it around
// each OnMessage) or, inside propose(), the freshly minted one.
func (r *Replica) traceCtx() types.TraceContext {
	if r.cfg.Spans == nil || r.tenv == nil {
		return types.TraceContext{}
	}
	return r.tenv.TraceContext()
}

// mintProposalTrace starts a new causal chain for a proposal this
// replica is about to lead and installs it on the env so the proposal
// broadcast (and every frame sent until the handler returns) carries
// it. Returns the zero context when tracing is off.
func (r *Replica) mintProposalTrace() types.TraceContext {
	if r.cfg.Spans == nil || r.tenv == nil {
		return types.TraceContext{}
	}
	ctx := r.cfg.Spans.NewTrace()
	r.tenv.SetTraceContext(ctx)
	return ctx
}

// observeSpan records one completed span against the replica's tracer.
// Safe with tracing off.
func (r *Replica) observeSpan(ctx types.TraceContext, stage string, view types.View, height types.Height, d time.Duration, detail string) {
	if r.cfg.Spans == nil {
		return
	}
	r.cfg.Spans.Observe(ctx, stage, uint64(view), uint64(height), d, detail)
}

// runSpan runs fn and, when ctx is sampled, records its wall-clock
// duration as a span.
func (r *Replica) runSpan(ctx types.TraceContext, stage string, view types.View, height types.Height, fn func()) {
	if r.cfg.Spans == nil || !ctx.Sampled {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	r.cfg.Spans.Observe(ctx, stage, uint64(view), uint64(height), time.Since(t0), "")
}

// ecallDurationObserver feeds trusted-call durations into the tee-ecall
// stage, attributed to the trace context of the message being handled
// (so a backup's TEEstore span shares the leader's trace ID). Returns
// nil with tracing off, which keeps the enclave on its no-op exit path.
func (r *Replica) ecallDurationObserver() func(fn string, d time.Duration) {
	if r.cfg.Spans == nil {
		return nil
	}
	return func(fn string, d time.Duration) {
		ctx := r.traceCtx()
		if !ctx.Sampled {
			return
		}
		r.cfg.Spans.Observe(ctx, obs.StageEcall,
			r.obsView.Load(), r.obsHeight.Load(), d, fn)
	}
}

// mempoolWaitObserver records the oldest popped client transaction's
// queue wait when a batch is drawn — the mempool-wait stage. NextBatch
// runs inside propose() with the proposal's context installed, so the
// span lands on the right trace.
func (r *Replica) mempoolWaitObserver() func(d time.Duration) {
	return func(d time.Duration) {
		ctx := r.traceCtx()
		if !ctx.Sampled {
			return
		}
		r.cfg.Spans.Observe(ctx, obs.StageMempoolWait,
			r.obsView.Load(), r.obsHeight.Load(), d, "")
	}
}

// beginProposalTrace records the propose-stage state for the replica's
// in-flight proposal: propose ends now, quorum assembly starts. The
// quorum span stays active until the decide — a quorum span still open
// in a flight dump is the signature of a stalled height.
func (r *Replica) beginProposalTrace(ctx types.TraceContext, b *types.Block) {
	if r.cfg.Spans == nil {
		return
	}
	// Track every proposal (overwriting stale state from an earlier
	// sampled one); the finish hooks gate on the sampled bit.
	r.propCtx = ctx
	r.propHeight = b.Height
	r.propStart = b.Proposed
	r.propQuorumAt = r.env.Now()
	r.propDecideAt = 0
	// Abandon any previous quorum span without ending it: a span that
	// never completed must not pollute the quorum histogram (the active
	// map is bounded, so leaks are evicted eventually).
	r.quorumSpan = nil
	if !ctx.Sampled {
		return
	}
	r.observeSpan(ctx, obs.StagePropose, b.View, b.Height,
		time.Duration(r.propQuorumAt-b.Proposed), "")
	r.quorumSpan = r.cfg.Spans.Start(ctx, obs.StageQuorum, uint64(b.View), uint64(b.Height), "")
}

// finishQuorumTrace closes the quorum-assembly stage when this
// replica's proposal gathered its commitment certificate. The active
// span's End records the duration; the env-clock timestamps feed the
// critical path at commit time.
func (r *Replica) finishQuorumTrace() {
	if r.cfg.Spans == nil || r.propDecideAt != 0 {
		return
	}
	r.propDecideAt = r.env.Now()
	r.quorumSpan.End()
	r.quorumSpan = nil
}

// finishCommitTrace records the commit stage and the full critical-path
// attribution when this replica's own sampled proposal commits. now is
// the env clock already read by handleCC.
func (r *Replica) finishCommitTrace(cc *types.CommitCert, b *types.Block, now types.Time) {
	if r.cfg.Spans == nil || r.propCtx.ID == 0 || b.Height != r.propHeight || r.propDecideAt == 0 {
		return
	}
	ctx := r.propCtx
	r.propCtx = types.TraceContext{}
	if !ctx.Sampled {
		return
	}
	commitD := time.Duration(now - r.propDecideAt)
	r.observeSpan(ctx, obs.StageCommit, cc.View, b.Height, commitD, "")
	r.cfg.Spans.RecordCritical(obs.CriticalPath{
		TraceID: ctx.ID,
		View:    uint64(cc.View),
		Height:  uint64(b.Height),
		TotalMS: float64(now-r.propStart) / 1e6,
		Stages: map[string]float64{
			obs.StagePropose: float64(r.propQuorumAt-r.propStart) / 1e6,
			obs.StageQuorum:  float64(r.propDecideAt-r.propQuorumAt) / 1e6,
			obs.StageCommit:  float64(commitD) / 1e6,
		},
	})
}

// flightTrigger fires the anomaly flight recorder. Safe with no
// recorder configured.
func (r *Replica) flightTrigger(reason string, detail string) {
	if r.cfg.Flight == nil {
		return
	}
	r.cfg.Flight.Trigger(reason, r.obsView.Load(), r.obsHeight.Load(), detail)
}
