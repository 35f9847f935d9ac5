package core

import (
	"fmt"
	"time"

	"achilles/internal/obs"
	"achilles/internal/types"
)

// This file wires the Achilles replica into the runtime observability
// layer (internal/obs): statically created counters/histograms for the
// hot-path protocol events, collect-at-scrape families for state that
// already lives in atomics (enclave call counts, mempool admission,
// the replica's view/height), and ring-buffer trace events.
//
// Everything is opt-in: with Config.Obs and Config.Trace nil, every
// instrument below is nil and records nothing (obs types are
// nil-receiver safe), so the simulator's benchmark runs pay nothing.

// metrics holds the replica's statically created instruments.
type metrics struct {
	commits        *obs.Counter
	committedTxs   *obs.Counter
	commitLatency  *obs.Histogram
	viewTimeouts   *obs.Counter
	syncRequests   *obs.Counter
	syncRerequests *obs.Counter

	recoveryAttempts *obs.Counter
	recoveryReplies  *obs.Counter
	recoveryServed   *obs.Counter
	recoveriesDone   *obs.Counter

	badViewCerts     *obs.Counter
	recoveryRejected *obs.Counter
	viewJumps        *obs.Counter
	stashDrops       *obs.Counter
	admissionRetries *obs.Counter

	restoredBlocks     *obs.Counter
	walErrors          *obs.Counter
	snapshotsWritten   *obs.Counter
	pastHorizonReplies *obs.Counter
	snapshotFetches    *obs.Counter
	snapshotsServed    *obs.Counter
	snapshotsInstalled *obs.Counter
	snapshotsRejected  *obs.Counter
	durableRollbacks   *obs.Counter

	reconfigsScheduled *obs.Counter
	reconfigsRejected  *obs.Counter
	epochActivations   *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		commits: reg.Counter("achilles_commits_total",
			"Blocks committed by this replica."),
		committedTxs: reg.Counter("achilles_committed_txs_total",
			"Transactions in blocks committed by this replica."),
		commitLatency: reg.Histogram("achilles_commit_latency_seconds",
			"Propose-to-commit latency of self-proposed blocks (per-view commit latency on one clock).",
			nil),
		viewTimeouts: reg.Counter("achilles_view_timeouts_total",
			"Views that expired with work pending (view changes driven by timeout)."),
		syncRequests: reg.Counter("achilles_block_sync_requests_total",
			"Block-sync requests sent for missing ancestors."),
		syncRerequests: reg.Counter("achilles_block_sync_rerequests_total",
			"Block-sync requests re-sent after the retry budget was exhausted."),
		recoveryAttempts: reg.Counter("achilles_recovery_attempts_total",
			"Recovery request broadcasts (the first and every retry of the incarnation's one request)."),
		recoveryReplies: reg.Counter("achilles_recovery_replies_total",
			"Recovery replies accepted while recovering."),
		recoveryServed: reg.Counter("achilles_recovery_replies_served_total",
			"Recovery replies served to recovering peers."),
		recoveriesDone: reg.Counter("achilles_recoveries_completed_total",
			"Recovery protocol completions (TEErecover accepted)."),
		badViewCerts: reg.Counter("achilles_bad_view_certs_total",
			"NEW-VIEW certificates evicted for failing signature verification."),
		recoveryRejected: reg.Counter("achilles_recovery_replies_rejected_total",
			"Recovery replies rejected (bad signature or inconsistent attachments)."),
		viewJumps: reg.Counter("achilles_view_jumps_total",
			"View synchronization jumps (f+1 verified claims of a higher view)."),
		stashDrops: reg.Counter("achilles_stash_drops_total",
			"Stashed proposals/certificates dropped or evicted at the stash bounds."),
		admissionRetries: reg.Counter("achilles_admission_retries_sent_total",
			"Client transactions answered with RETRY-AFTER backpressure from the inline admission path."),
		restoredBlocks: reg.Counter("achilles_restored_blocks_total",
			"Committed blocks restored from the local snapshot + WAL at boot."),
		walErrors: reg.Counter("achilles_wal_errors_total",
			"Failed durable appends (the replica keeps running in-memory)."),
		snapshotsWritten: reg.Counter("achilles_snapshots_written_total",
			"State snapshots checkpointed to the data directory."),
		pastHorizonReplies: reg.Counter("achilles_past_horizon_replies_total",
			"Block-sync requests answered with a typed past-pruning-horizon signal."),
		snapshotFetches: reg.Counter("achilles_snapshot_fetches_total",
			"Snapshot transfers started to catch up past a peer's pruning horizon."),
		snapshotsServed: reg.Counter("achilles_snapshots_served_total",
			"Snapshot transfers served to catching-up peers."),
		snapshotsInstalled: reg.Counter("achilles_snapshots_installed_total",
			"Remotely fetched snapshots verified and installed."),
		snapshotsRejected: reg.Counter("achilles_snapshots_rejected_total",
			"Fetched snapshots rejected (bad encoding, stale height, or invalid certificate)."),
		durableRollbacks: reg.Counter("achilles_durable_rollbacks_total",
			"Boots where the on-disk ledger was behind the enclave-sealed durable marker (disk rollback detected; local state discarded)."),
		reconfigsScheduled: reg.Counter("achilles_reconfigs_scheduled_total",
			"Committed reconfiguration transactions accepted and scheduled for activation."),
		reconfigsRejected: reg.Counter("achilles_reconfigs_rejected_total",
			"Committed reconfiguration transactions rejected (malformed, unauthorized, or conflicting)."),
		epochActivations: reg.Counter("achilles_epoch_activations_total",
			"Configuration epochs activated by this replica."),
	}
}

// registerCollectors registers the collect-at-scrape families reading
// state that already lives behind atomics: the replica's consensus
// position, the recovery timings (Table 2), the enclave's ecall
// profile, and the mempool admission counters. Called from Init, after
// the enclave and pool exist; re-registration (a restarted node
// sharing a registry) replaces the collectors so the newest
// incarnation wins.
func (r *Replica) registerCollectors(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("achilles_view",
		"Current consensus view.", obs.KindGauge, func() []obs.Sample {
			return []obs.Sample{{Value: float64(r.obsView.Load())}}
		})
	reg.Func("achilles_committed_height",
		"Height of the latest committed block.", obs.KindGauge, func() []obs.Sample {
			return []obs.Sample{{Value: float64(r.obsHeight.Load())}}
		})
	reg.Func("achilles_epoch",
		"Active configuration epoch.", obs.KindGauge, func() []obs.Sample {
			if m := r.obsMember.Load(); m != nil {
				return []obs.Sample{{Value: float64(m.Epoch)}}
			}
			return []obs.Sample{{Value: 0}}
		})
	reg.Func("achilles_pending_epoch",
		"Committed-but-not-yet-active configuration epoch (0 when none pending).",
		obs.KindGauge, func() []obs.Sample {
			if p := r.obsPending.Load(); p != nil {
				return []obs.Sample{{Value: float64(p.Epoch)}}
			}
			return []obs.Sample{{Value: 0}}
		})
	reg.Func("achilles_cluster_size",
		"Members in the active configuration.", obs.KindGauge, func() []obs.Sample {
			if m := r.obsMember.Load(); m != nil {
				return []obs.Sample{{Value: float64(m.N())}}
			}
			return []obs.Sample{{Value: 0}}
		})
	reg.Func("achilles_recovering",
		"1 while the replica is running the recovery protocol.", obs.KindGauge,
		func() []obs.Sample {
			v := 0.0
			if r.obsRecovering.Load() {
				v = 1
			}
			return []obs.Sample{{Value: v}}
		})
	reg.Func("achilles_recovery_init_seconds",
		"Duration of post-reboot initialization (enclave re-creation plus channel setup).",
		obs.KindGauge, func() []obs.Sample {
			return []obs.Sample{{Value: time.Duration(r.obsInitNanos.Load()).Seconds()}}
		})
	reg.Func("achilles_recovery_last_seconds",
		"Duration of the last completed recovery (request to TEErecover).",
		obs.KindGauge, func() []obs.Sample {
			return []obs.Sample{{Value: time.Duration(r.obsRecoverNanos.Load()).Seconds()}}
		})

	enc := r.enclave
	reg.Func("achilles_tee_ecalls_total",
		"Trusted calls by trusted function.", obs.KindCounter, func() []obs.Sample {
			fns, counts := enc.CallCounts()
			out := make([]obs.Sample, len(fns))
			for i := range fns {
				out[i] = obs.Sample{
					Labels: []obs.Label{obs.L("fn", fns[i])},
					Value:  float64(counts[i]),
				}
			}
			return out
		})
	reg.Func("achilles_tee_modelled_cost_seconds_total",
		"Modelled enclave cost charged so far (initialization plus transitions).",
		obs.KindCounter, func() []obs.Sample {
			return []obs.Sample{{Value: enc.ModelledCost().Seconds()}}
		})
	reg.Func("achilles_tee_seals_total",
		"Sealed writes to untrusted storage.", obs.KindCounter, func() []obs.Sample {
			s, _, _ := enc.SealStats()
			return []obs.Sample{{Value: float64(s)}}
		})
	reg.Func("achilles_tee_unseals_total",
		"Unseal attempts from untrusted storage.", obs.KindCounter, func() []obs.Sample {
			_, u, _ := enc.SealStats()
			return []obs.Sample{{Value: float64(u)}}
		})
	reg.Func("achilles_tee_unseal_failures_total",
		"Unseal attempts that found nothing or failed authentication.",
		obs.KindCounter, func() []obs.Sample {
			_, _, f := enc.SealStats()
			return []obs.Sample{{Value: float64(f)}}
		})

	store := r.store
	reg.Func("achilles_ledger_retained_bodies",
		"Block bodies currently retained by the ledger (committed head back to the prune horizon).",
		obs.KindGauge, func() []obs.Sample {
			return []obs.Sample{{Value: float64(store.Bodies())}}
		})

	pool := r.pool
	reg.Func("achilles_mempool_depth",
		"Client transactions queued in the mempool.", obs.KindGauge, func() []obs.Sample {
			return []obs.Sample{{Value: float64(pool.Stats().Depth)}}
		})
	reg.Func("achilles_mempool_accepted_total",
		"Client transactions admitted to the mempool.", obs.KindCounter, func() []obs.Sample {
			return []obs.Sample{{Value: float64(pool.Stats().Accepted)}}
		})
	reg.Func("achilles_mempool_duplicates_total",
		"Client transactions rejected as pending or already committed.",
		obs.KindCounter, func() []obs.Sample {
			return []obs.Sample{{Value: float64(pool.Stats().Duplicates)}}
		})
	reg.Func("achilles_mempool_committed_txs_total",
		"Client transactions marked committed in the mempool.", obs.KindCounter,
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(pool.Stats().CommittedTxs)}}
		})
	reg.Func("achilles_mempool_synthetic_total",
		"Synthetic transactions generated into batches.", obs.KindCounter,
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(pool.Stats().Synthetic)}}
		})
	reg.Func("achilles_mempool_rejected_total",
		"Client transactions refused at admission, by reason.", obs.KindCounter,
		func() []obs.Sample {
			s := pool.Stats()
			return []obs.Sample{
				{Labels: []obs.Label{obs.L("reason", "full")}, Value: float64(s.RejectedFull)},
				{Labels: []obs.Label{obs.L("reason", "rate")}, Value: float64(s.RejectedRate)},
			}
		})
	reg.Func("achilles_mempool_requeued_total",
		"Client transactions re-admitted through the priority lane after a failed proposal.",
		obs.KindCounter, func() []obs.Sample {
			return []obs.Sample{{Value: float64(pool.Stats().Requeued)}}
		})
	reg.Func("achilles_mempool_prio_depth",
		"Transactions waiting in the mempool priority lane.", obs.KindGauge,
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(pool.Stats().PrioDepth)}}
		})
}

// Status is a race-safe, point-in-time snapshot of the replica's
// externally visible consensus state, served on the admin endpoint's
// /status document. It reads only atomics, so scraper goroutines never
// touch event-loop state.
type Status struct {
	Node       types.NodeID `json:"node"`
	View       uint64       `json:"view"`
	Height     uint64       `json:"height"`
	Role       string       `json:"role"`
	Recovering bool         `json:"recovering"`
	// LastCommitAgoSeconds is the time since this replica last
	// committed a block on its own clock; negative means no commit yet.
	LastCommitAgoSeconds float64 `json:"last_commit_ago_seconds"`
	// InitSeconds and RecoverySeconds are the Table 2 reboot timings
	// (zero until the corresponding phase completes).
	InitSeconds     float64 `json:"init_seconds"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	// Epoch/ConfigHash identify the active configuration; Members lists
	// its replica IDs. PendingEpoch/PendingActivateAt describe a
	// committed-but-not-yet-active reconfiguration (zero when none).
	Epoch             uint64         `json:"epoch"`
	ConfigHash        string         `json:"config_hash"`
	Members           []types.NodeID `json:"members"`
	PendingEpoch      uint64         `json:"pending_epoch"`
	PendingActivateAt uint64         `json:"pending_activate_at"`
}

// Status snapshots the replica. Safe to call from any goroutine.
func (r *Replica) Status() Status {
	view := r.obsView.Load()
	s := Status{
		Node:                 r.cfg.Self,
		View:                 view,
		Height:               r.obsHeight.Load(),
		Recovering:           r.obsRecovering.Load(),
		LastCommitAgoSeconds: -1,
		InitSeconds:          time.Duration(r.obsInitNanos.Load()).Seconds(),
		RecoverySeconds:      time.Duration(r.obsRecoverNanos.Load()).Seconds(),
	}
	member := r.obsMember.Load()
	if member != nil {
		s.Epoch = uint64(member.Epoch)
		s.ConfigHash = fmt.Sprintf("%x", member.ConfigHash())
		s.Members = append([]types.NodeID(nil), member.Members...)
	}
	if p := r.obsPending.Load(); p != nil {
		s.PendingEpoch = uint64(p.Epoch)
		s.PendingActivateAt = uint64(p.ActivateAt)
	}
	switch {
	case s.Recovering:
		s.Role = "recovering"
	case member != nil && !member.Contains(r.cfg.Self):
		s.Role = "learner"
	case member != nil && member.Leader(types.View(view)) == r.cfg.Self:
		s.Role = "leader"
	case member == nil && r.cfg.IsLeader(types.View(view)):
		s.Role = "leader"
	default:
		s.Role = "replica"
	}
	if last := r.obsLastCommit.Load(); last > 0 {
		if env, ok := r.obsEnv.Load().(interface{ Now() types.Time }); ok {
			s.LastCommitAgoSeconds = (env.Now() - types.Time(last)).Seconds()
		}
	}
	return s
}

// traceEcall builds the enclave Observe hook feeding TraceEcall events.
func (r *Replica) traceEcall() func(fn string) {
	if r.trace == nil {
		return nil
	}
	return func(fn string) {
		r.trace.Emit(obs.TraceEcall, r.obsView.Load(), r.obsHeight.Load(), fn)
	}
}

// shortHash renders a hash prefix for trace event details.
func shortHash(h types.Hash) string { return fmt.Sprintf("h=%x", h[:4]) }
