// Package sched is the replica hot path's hop from a connection's
// reader goroutine onto the single-threaded consensus loop:
//
//	reader ──Ingress──▶ consensus step ──▶ execute, egress (inline)
//
// Sync is the one scheduler. Ingress hands each decoded message's step
// to the bound consensus loop, tagged with its traffic lane; everything
// after that — verification, CHECKER calls, ledger writes, execution
// and client replies — runs inline on the consensus goroutine, in
// program order (see DESIGN.md, "Concurrency model"). The simulator,
// the fuzzer and the live runtime therefore share one call order.
package sched

import (
	"achilles/internal/types"
)

// Lane classifies a delivered consensus step by traffic class, so the
// runtime that owns the consensus loop can prioritize protocol progress
// over bulk client submissions when both queues are hot (overload must
// degrade client admission, never consensus liveness or recovery).
type Lane uint8

const (
	// LaneConsensus carries protocol traffic: proposals, votes,
	// decides, view changes, recovery, block sync, timers.
	LaneConsensus Lane = iota
	// LaneClient carries client transaction submissions.
	LaneClient
)

// LaneFor returns the delivery lane for an inbound message. Everything
// except client submissions is consensus-critical.
func LaneFor(msg types.Message) Lane {
	if _, ok := msg.(*types.ClientRequest); ok {
		return LaneClient
	}
	return LaneConsensus
}

// Sync is the inline scheduler: Ingress delivers each step to the bound
// consensus loop, which runs the rest of the hot path inline.
type Sync struct {
	deliver func(lane Lane, step func())
}

// NewSync returns an inline scheduler.
func NewSync() *Sync { return &Sync{} }

// Bind installs the consensus-loop sink: deliver enqueues a step onto
// the single-threaded consensus loop, tagged with the traffic lane it
// belongs to. The runtime that owns the loop calls Bind once, before
// traffic flows.
func (s *Sync) Bind(deliver func(lane Lane, step func())) { s.deliver = deliver }

// Ingress hands one decoded inbound message's step to the consensus
// loop on the message's lane. The consensus handlers do all checking
// inline, charging the meter as always. from and ctx are ignored; the
// signature is the one benchmark/layers.go calls.
func (s *Sync) Ingress(_ types.NodeID, msg types.Message, _ types.TraceContext, step func()) {
	s.deliver(LaneFor(msg), step)
}

// Egress runs reply work inline. The replica replies inline itself;
// only benchmark/layers.go calls this.
func (s *Sync) Egress(fn func()) { fn() }

// Stop is a no-op, since the inline scheduler owns no goroutines; only
// benchmark/layers.go calls it.
func (s *Sync) Stop() {}
