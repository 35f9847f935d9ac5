// Package core implements the Achilles replica: the paper's primary
// contribution. One instance runs per node and drives the one-phase
// normal-case operations (Algorithm 1), the pacemaker, block
// synchronization, client interaction, and the rollback-resilient
// recovery protocol (Algorithm 3) on top of the CHECKER and
// ACCUMULATOR trusted components.
//
// The whole hot path runs single-threaded on the consensus goroutine
// (protocol.Env contract; DESIGN.md "Concurrency model"): steps.go holds
// the step functions, which verify, call the trusted components, commit,
// execute and reply to clients inline, in program order.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/core/accum"
	"achilles/internal/core/checker"
	"achilles/internal/crypto"
	"achilles/internal/ledger"
	"achilles/internal/mempool"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/statemachine"
	"achilles/internal/tee"
	"achilles/internal/types"
)

// Config parameterizes an Achilles replica. The zero value is not
// usable; fill at least the embedded protocol.Config and the crypto
// fields (the harness does this uniformly for all nodes).
type Config struct {
	protocol.Config

	// Scheme, Ring and Priv form the node's PKI identity (Sec. 3.1).
	Scheme crypto.Scheme
	Ring   *crypto.KeyRing
	Priv   crypto.PrivateKey
	// CryptoCosts models signature CPU time charged to the clock.
	CryptoCosts crypto.Costs
	// TEECosts models enclave transition/creation costs.
	TEECosts tee.CallCosts
	// TEEDisabled runs the trusted components outside the enclave —
	// the Achilles-C variant of Sec. 5.4 (no ecall/init cost, no
	// in-enclave crypto slowdown).
	TEEDisabled bool
	// EnclaveCryptoFactor scales signature costs for code running
	// inside the enclave (in-enclave crypto is slower than native; this
	// is the bulk of the SGX overhead in Sec. 5.4). 0 means 1.0.
	EnclaveCryptoFactor float64
	// MachineSecret roots the enclave's sealing key.
	MachineSecret [32]byte
	// SealedStore persists across this node's reboots; the harness
	// passes the same store to successive incarnations so tests can
	// mount rollback attacks on it. Achilles' checker never reads its
	// consensus state from it.
	SealedStore tee.SealedStore
	// Recovering marks a replica created after a reboot: it must run
	// the recovery protocol before participating (Sec. 4.5).
	Recovering bool
	// ExecCostPerTx is the modelled execution cost per transaction.
	ExecCostPerTx time.Duration
	// SyntheticWorkload fills every block with generated transactions,
	// modelling the saturated closed-loop clients of the throughput
	// experiments. When false, blocks contain only real client
	// transactions (possibly none; empty blocks still advance views).
	SyntheticWorkload bool
	// RecoveryRetry is the recovery re-request period (Sec. 4.5); zero
	// defaults to half of BaseTimeout.
	RecoveryRetry time.Duration
	// ConnSetupPerPeer models the cost of (re-)establishing the secure
	// channel to each peer during node initialization; it is what makes
	// the paper's Table 2 "Initialization" row grow with cluster size.
	// Zero defaults to 100µs.
	ConnSetupPerPeer time.Duration
	// DisableFastPath ablates the new-view optimization (Sec. 4.4):
	// every view starts from f+1 view certificates and the
	// accumulator, never from the previous view's commitment
	// certificate. Used by the ablation benchmarks.
	DisableFastPath bool
	// DisableReReply ablates the view-advance recovery re-replies
	// (recovery.go), leaving only the retry rounds.
	DisableReReply bool
	// PipelineDepth is how many consensus heights the leader keeps in
	// flight at once (chained pipelining, DESIGN.md §11). 0 or 1 is the
	// historical lock-step hot path — one height per view, a view
	// change per commit — and is bit-exact with the golden-hash tests.
	// Above 1 the view stays stable across commits: the leader proposes
	// height h+1 as soon as h's proposal is broadcast (the checker
	// certifies the chain link), and the view advances only on timeout,
	// idle rotation or epoch activation.
	PipelineDepth int
	// Pool injects an externally constructed mempool (callers that want
	// to inspect it). nil creates a pool from SyntheticWorkload.
	Pool *mempool.Pool
	// Admission bounds what the pool accepts from clients (depth bound
	// and per-client token buckets); rejected submissions are answered
	// with types.ClientRetry backpressure. The zero value disables
	// admission control — the historical accept-everything behavior the
	// golden tests pin. Applied to the pool (injected or constructed)
	// during Init.
	Admission mempool.AdmissionConfig
	// RetainHeights bounds how many committed block bodies below the
	// committed head are retained; older bodies are pruned periodically
	// (certificate verification never needs them again). 0 defaults to
	// 1024.
	RetainHeights uint64
	// PruneInterval is how often (in committed heights) the retention
	// horizon is enforced. 0 defaults to 256; tests shrink it so pruning
	// and the past-horizon catch-up path trigger at small heights.
	PruneInterval uint64
	// Durable is the node's persistence handle (WAL + snapshots). The
	// replica restores its ledger and state machine from it during Init,
	// appends every commit to it, and checkpoints snapshots on the
	// configured interval. nil keeps the replica purely in-memory — the
	// simulator and historical behavior.
	Durable *ledger.Durable
	// Obs is the metrics registry consensus series are registered on
	// (nil disables metrics; see obs.go for the series).
	Obs *obs.Registry
	// Trace receives protocol events (propose/vote/commit/view-change/
	// recovery/ecall); nil disables tracing.
	Trace *obs.Tracer
	// Spans is the causal-tracing span tracer. When set, the replica
	// mints a trace context per proposal, propagates it on outbound
	// frames (via the transport's trace-context hook), and records the
	// per-stage spans and critical-path breakdowns the trace-breakdown
	// bench and /spans endpoint serve. nil disables span tracing — the
	// hot path pays a nil check and nothing else.
	Spans *obs.SpanTracer
	// Flight is the anomaly flight recorder. When set, the replica
	// triggers a dump on view timeouts and recovery entry (commit
	// stalls are triggered by the owning process, which watches
	// Status()). nil disables.
	Flight *obs.FlightRecorder
	// Observer receives attested trusted-component transitions
	// (observer.go); nil disables observation. Used by the adversary
	// fuzz harness to machine-check safety invariants after every event.
	Observer StateObserver
	// UnsafeWeakenChecker disables the checker's equivocation guards
	// (checker.Config.UnsafeWeaken). Never set outside adversarial
	// testing: it exists so the fuzz harness can prove its safety
	// invariants actually catch a broken TEE.
	UnsafeWeakenChecker bool
	// InitialMembership is the boot epoch's configuration (epoch.go).
	// nil derives the conventional contiguous membership 0..N-1 from
	// Ring — the historical fixed-membership behavior, bit-identical on
	// the hot path. Operators pass the current epoch's membership when
	// booting a joiner or rebooting a node after reconfigurations.
	InitialMembership *types.Membership
	// ReconfigDelay is Δ: a reconfig command committed at height h
	// activates its epoch at height h+Δ. 0 defaults to 4.
	ReconfigDelay uint64
	// OnEpochChange fires after an epoch activates, with the new
	// membership and its ring (the live node rewires transport peers and
	// handshake keys here). Runs on the consensus goroutine; it must not
	// call back into the replica.
	OnEpochChange func(m *types.Membership, ring *crypto.KeyRing)
	// KeyByPub resolves the private half of this node's OWN ring key
	// given its marshalled public half, or nil when unknown — the
	// stand-in for enclave-resident key provisioning. It is consulted
	// when the active epoch's key for this node may differ from Priv: at
	// boot after durable restore (a node restarting after its own key
	// rotation), and at epoch activation when no key was staged via
	// StageRotationKey. nil keeps Priv for life.
	KeyByPub func(pub []byte) crypto.PrivateKey
}

// Bounds on the stash maps a Byzantine peer can write into. Honest
// desynchronization stashes at most a handful of entries (the next few
// views' proposals while a DECIDE is in flight, a couple of
// certificates while ancestors sync); the caps only bite under attack.
const (
	// maxStashedProposals bounds stashedProposals across all (view,
	// height) slots. Insertion prefers nearer slots: those are the ones
	// replay will actually consume.
	maxStashedProposals = 16
	// maxStashedCCs bounds stashedCCs (eviction drops the oldest
	// entry; duplicates are kept — see stashCC).
	maxStashedCCs = 64
)

// round is one in-flight proposal in the leader's pipeline window:
// the votes gathered for it, whether its commitment certificate has
// been formed, and the real client transactions it carries (requeued
// through the mempool's priority lane if the window drains before the
// block commits — admitted work must survive a failed leader slot
// instead of relying solely on client retransmission, which admission
// control may refuse).
type round struct {
	height  types.Height
	votes   map[types.NodeID]*types.StoreCert
	decided bool
	txs     []types.Transaction
}

// Replica is an Achilles consensus node.
type Replica struct {
	cfg Config
	env protocol.Env

	svc     *crypto.Service
	teeSvc  *crypto.Service
	enclave *tee.Enclave
	chk     *checker.Checker
	acc     *accum.Accumulator
	store   *ledger.Store
	pool    *mempool.Pool
	machine statemachine.Machine
	pm      protocol.Pacemaker

	view types.View

	// Epoch-based reconfiguration (epoch.go): the active epoch's
	// membership, the scheduled next epoch (nil when none), and the ring
	// of every epoch this incarnation has seen (restored certificates
	// are judged under the epoch that produced them).
	member     *types.Membership
	pending    *types.Membership
	epochRings map[types.Epoch]*crypto.KeyRing
	// stagedPrivs holds the private halves of announced key rotations
	// for this node, keyed by the epoch that installs them; keyMu guards
	// it because StageRotationKey may be called from any goroutine.
	keyMu       sync.Mutex
	stagedPrivs map[types.Epoch]stagedRotation

	// preb = ⟨b, φ_b, φ_c⟩: the latest stored block from a leader.
	prebBlock *types.Block
	prebBC    *types.BlockCert
	prebCC    *types.CommitCert

	lastCC *types.CommitCert

	viewCerts map[types.View]map[types.NodeID]*types.ViewCert

	// rounds is the leader's table of in-flight proposals for the
	// current view, keyed by block hash: one entry per proposed height
	// whose commitment certificate has not yet been applied. At
	// PipelineDepth <= 1 it holds at most one entry and reproduces the
	// historical single votes/voteHash/decided slot exactly; deeper
	// windows hold one entry per pipelined height. Entries leave the
	// table when their block commits (handleCC) or when the window is
	// drained (drainPipeline).
	rounds map[types.Hash]*round
	// pipeTip/pipeHeight mirror the checker's pipeline anchor on the
	// host side: hash and height of the last block this node proposed
	// in the current view (zero when none). Chained refill extends it.
	pipeTip    types.Hash
	pipeHeight types.Height
	// refilling guards refillWindow against re-entry: a chained propose
	// self-votes, and at f=0 the self-vote alone commits and re-enters
	// tryPropose before the refill loop's own bookkeeping runs.
	refilling bool
	// viewTimerDeadline is the earliest instant the most recently armed
	// view timer may legitimately fire. The runtime cannot cancel
	// timers, so pipelined commit progress re-arms by pushing the
	// deadline; an earlier-armed timer firing before it is stale and
	// ignored (OnTimer).
	viewTimerDeadline types.Time

	// viewClaims records, per peer, the highest view attested by a
	// signature-verified view certificate. When f+1 nodes (counting
	// ourselves) claim views at or above some v > view, at least one of
	// them is correct, so jumping to v is safe view synchronization
	// (maybeSyncViews).
	viewClaims map[types.NodeID]types.View

	// stashedProposals keys stashed proposals by (view, height): with
	// chained pipelining several of one view's heights can be in flight
	// at once, and keying by view alone would let sibling heights evict
	// each other while their common ancestor syncs.
	stashedProposals map[types.View]map[types.Height]*MsgProposal
	stashedCCs       []*types.CommitCert
	inflightSync     map[types.Hash]int

	// Snapshot transfer (snapshot.go): the single in-flight fetch, its
	// epoch (distinguishes stale retry timers), how often each peer has
	// been served, and the durable incarnation for the sealed marker.
	snapFetch      *snapFetch
	snapEpoch      uint64
	snapServed     map[types.NodeID]types.Height
	durIncarnation uint64
	// epochProofs retains the transition proof for each epoch this node
	// saw activate (bounded to the most recent maxEpochProofs), served
	// inside snapshots so requesters stranded behind a reconfiguration
	// can verify their way forward (epoch.go).
	epochProofs map[types.Epoch]*types.EpochTransition
	// forwardedRc tracks operator-submitted reconfig transactions this
	// node has already rebroadcast to the peers, bounding the forward
	// to one broadcast per command per node (epoch.go).
	forwardedRc map[types.TxKey]bool
	// durHeight is the highest height the sealed durable marker attests;
	// epoch activations reseal the marker at this height under the new
	// sealing key so rollback detection survives rotations.
	durHeight types.Height

	recovering bool
	recEpoch   types.View         // distinguishes retry timers
	recReq     *types.RecoveryReq // this incarnation's one request
	recReplies map[types.NodeID]*MsgRecoveryRpy

	// recoveryPending tracks peers we recently answered a recovery
	// request for; we re-reply when our view advances so a recovering
	// node observes the cluster the moment it leaves a stalled view
	// (see recovery.go).
	recoveryPending map[types.NodeID]*pendingRecovery

	// Recovery timing instrumentation (Table 2).
	bootAt       types.Time
	initEndAt    types.Time
	recoverEndAt types.Time

	// Observability (obs.go). The atomics mirror event-loop state so
	// metric scrapers and /status never touch it directly.
	m     metrics
	trace *obs.Tracer

	// Causal tracing (spans.go). tenv is the env's optional
	// trace-context carrier (the live transport implements it; the
	// simulator does not, keeping deterministic replay byte-identical).
	// The prop* fields track the replica's own in-flight proposal so the
	// leader-path stages propose / quorum-assembly / commit tile the
	// proposed→committed interval on the env clock.
	tenv         traceEnv
	propCtx      types.TraceContext
	propHeight   types.Height
	propStart    types.Time // block.Proposed
	propQuorumAt types.Time // end of propose(): quorum wait starts
	propDecideAt types.Time // quorum assembled: commit step starts
	quorumSpan   *obs.ActiveSpan

	obsEnv          atomic.Value // protocol.Env, stored once in Init
	obsMember       atomic.Pointer[types.Membership]
	obsPending      atomic.Pointer[types.Membership]
	obsView         atomic.Uint64
	obsHeight       atomic.Uint64
	obsSnapInstalls atomic.Uint64
	obsRestored     atomic.Uint64 // committed height restored from disk at boot
	obsRecovering   atomic.Bool
	obsLastCommit   atomic.Int64 // env nanos of the latest commit
	obsInitNanos    atomic.Int64
	obsRecoverNanos atomic.Int64
}

// pendingRecovery remembers a peer's recovery request for view-advance
// re-replies.
type pendingRecovery struct {
	req       *types.RecoveryReq
	remaining int
}

// New creates an Achilles replica. The replica is inert until Init.
func New(cfg Config) *Replica {
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = 500 * time.Millisecond
	}
	if cfg.RecoveryRetry == 0 {
		cfg.RecoveryRetry = cfg.BaseTimeout / 2
	}
	if cfg.ConnSetupPerPeer == 0 {
		cfg.ConnSetupPerPeer = 100 * time.Microsecond
	}
	if cfg.RetainHeights == 0 {
		cfg.RetainHeights = 1024
	}
	if cfg.PruneInterval == 0 {
		cfg.PruneInterval = 256
	}
	return &Replica{
		cfg:              cfg,
		m:                newMetrics(cfg.Obs),
		trace:            cfg.Trace,
		viewCerts:        make(map[types.View]map[types.NodeID]*types.ViewCert),
		viewClaims:       make(map[types.NodeID]types.View),
		rounds:           make(map[types.Hash]*round),
		stashedProposals: make(map[types.View]map[types.Height]*MsgProposal),
		inflightSync:     make(map[types.Hash]int),
		snapServed:       make(map[types.NodeID]types.Height),
		epochProofs:      make(map[types.Epoch]*types.EpochTransition),
		forwardedRc:      make(map[types.TxKey]bool),
		recReplies:       make(map[types.NodeID]*MsgRecoveryRpy),
		recoveryPending:  make(map[types.NodeID]*pendingRecovery),
	}
}

// enclaveCrypto returns the signature cost model for code inside the
// enclave.
func (r *Replica) enclaveCrypto() crypto.Costs {
	c := r.cfg.CryptoCosts
	f := r.cfg.EnclaveCryptoFactor
	if r.cfg.TEEDisabled || f == 0 {
		return c
	}
	c.Sign = time.Duration(float64(c.Sign) * f)
	c.Verify = time.Duration(float64(c.Verify) * f)
	return c
}

// Init implements protocol.Replica.
func (r *Replica) Init(env protocol.Env) {
	r.env = env
	r.obsEnv.Store(env)
	r.bootAt = env.Now()
	r.store = ledger.NewStore()
	switch {
	case r.cfg.Pool != nil:
		r.pool = r.cfg.Pool
	case r.cfg.SyntheticWorkload:
		r.pool = mempool.NewSynthetic(r.cfg.Self, r.cfg.PayloadSize)
	default:
		r.pool = mempool.New()
	}
	if r.cfg.Admission.Enabled() {
		r.pool.SetAdmission(r.cfg.Admission)
	}
	r.machine = statemachine.NewDigestMachine(env, r.cfg.ExecCostPerTx)

	r.tenv, _ = env.(traceEnv)
	if r.cfg.Spans != nil {
		r.pool.SetWaitObserver(r.mempoolWaitObserver())
	}
	r.enclave = tee.New(tee.Config{
		Measurement:     types.HashBytes([]byte("achilles-trusted-components-v1")),
		MachineSecret:   r.cfg.MachineSecret,
		Meter:           env,
		Costs:           r.cfg.TEECosts,
		Store:           r.cfg.SealedStore,
		Disabled:        r.cfg.TEEDisabled,
		Observe:         r.traceEcall(),
		ObserveDuration: r.ecallDurationObserver(),
	})
	// The untrusted host verifies with native-speed crypto; trusted
	// components sign/verify at in-enclave speed.
	r.svc = crypto.NewService(r.cfg.Scheme, r.cfg.Ring, nil, r.cfg.Self, env, r.cfg.CryptoCosts)
	teeSvc := crypto.NewService(r.cfg.Scheme, r.cfg.Ring, r.cfg.Priv, r.cfg.Self, env, r.enclaveCrypto())
	r.teeSvc = teeSvc
	r.initMembership()
	// A node with durable state on disk (or an enclave-sealed durable
	// marker attesting there should be some) is by definition rebooting,
	// so it must run the recovery protocol before participating even if
	// the operator forgot to say so: the checker's state died with the
	// old process regardless of what the ledger remembers.
	marker, hasMarker := r.unsealDurableMarker()
	mustRecover := r.cfg.Recovering
	if r.cfg.Durable != nil {
		if h, _ := r.cfg.Durable.Recovered().Tip(); h > 0 || hasMarker {
			mustRecover = true
		}
	}
	r.chk = checker.New(checker.Config{
		Enclave:      r.enclave,
		Service:      teeSvc,
		LeaderOf:     r.leaderOf,
		Quorum:       r.cfg.Quorum(),
		QuorumFn:     r.quorum,
		GenesisHash:  r.store.Genesis().Hash(),
		Recovering:   mustRecover,
		NonceSeed:    uint64(r.cfg.Seed)<<16 ^ uint64(r.cfg.Self),
		UnsafeWeaken: r.cfg.UnsafeWeakenChecker,
	})
	r.acc = accum.New(r.enclave, teeSvc, r.cfg.Quorum())
	r.acc.SetQuorumFn(r.quorum)
	r.pm = protocol.Pacemaker{Base: r.cfg.BaseTimeout, MaxShift: 10}

	r.prebBlock = r.store.Genesis()
	r.restoreDurable(marker, hasMarker)
	// Reconcile the enclave's sealed epoch only after the durable restore
	// has advanced the configuration as far as the disk can prove — an
	// enclave ahead of everything reconstructable is a configuration
	// rollback, but an enclave ahead of just the BOOT config is the
	// normal restart-after-rotation case the restore resolves.
	r.syncEnclaveEpoch()
	// With the epoch settled, make sure we sign as the member we claim
	// to be: a node restarting after its own key rotation boots with
	// its original Priv and must switch before recovery signs anything.
	r.adoptOwnKey()

	// Re-establish the secure channels to every peer (part of the
	// initialization cost the paper's Table 2 reports).
	env.Charge(time.Duration(r.cfg.N-1) * r.cfg.ConnSetupPerPeer)
	r.initEndAt = env.Now()
	r.obsInitNanos.Store(int64(r.initEndAt - r.bootAt))
	r.registerCollectors(r.cfg.Obs)

	if mustRecover {
		r.recovering = true
		r.obsRecovering.Store(true)
		r.startRecovery()
		return
	}
	// Bootstrap: enter view 1 and announce to its leader.
	r.enterNextView()
}

// View returns the replica's current view (for tests and metrics).
func (r *Replica) View() types.View { return r.view }

// Recovering reports whether the replica is still in recovery.
func (r *Replica) Recovering() bool { return r.recovering }

// InitTime returns the duration of post-reboot initialization (enclave
// re-creation plus channel setup) — Table 2's "Initialization" row.
func (r *Replica) InitTime() time.Duration { return r.initEndAt - r.bootAt }

// RecoveryTime returns the duration of the recovery protocol itself
// (request to TEErecover completion) — Table 2's "Recovery" row. It
// returns 0 while recovery is still in progress.
func (r *Replica) RecoveryTime() time.Duration {
	if r.recoverEndAt == 0 {
		return 0
	}
	return r.recoverEndAt - r.initEndAt
}

// Ledger exposes the replica's block store (read-only use by tests,
// examples and the harness's safety checker).
func (r *Replica) Ledger() *ledger.Store { return r.store }

// Checker exposes the trusted checker (tests).
func (r *Replica) Checker() *checker.Checker { return r.chk }

// Enclave exposes the enclave host handle (tests, overhead profiling).
func (r *Replica) Enclave() *tee.Enclave { return r.enclave }

// SnapshotsInstalled returns how many remotely fetched snapshots this
// replica has verified and installed (tests).
func (r *Replica) SnapshotsInstalled() uint64 { return r.obsSnapInstalls.Load() }

// RestoredHeight returns the committed height this incarnation restored
// from its data directory at boot (0 when nothing was restored).
func (r *Replica) RestoredHeight() types.Height { return types.Height(r.obsRestored.Load()) }
