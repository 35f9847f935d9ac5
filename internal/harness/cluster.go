// Package harness assembles simulated clusters of any protocol in this
// repository, runs measured workloads on them, injects faults
// (crashes, reboots, rollback attacks, partitions), and produces the
// numbers behind every table and figure of the paper (see DESIGN.md
// §4 for the experiment index).
package harness

import (
	"fmt"
	"io"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/damysus"
	"achilles/internal/flexibft"
	"achilles/internal/mempool"
	"achilles/internal/oneshot"
	"achilles/internal/protocol"
	"achilles/internal/raft"
	"achilles/internal/sim"
	"achilles/internal/tee"
	"achilles/internal/tee/counter"
	"achilles/internal/types"
)

// ProtocolKind selects the consensus protocol for a cluster.
type ProtocolKind string

// The protocols compared in the paper's evaluation (Sec. 5).
const (
	// Achilles is the paper's protocol: 2f+1, one phase, no counter.
	Achilles ProtocolKind = "Achilles"
	// AchillesC runs Achilles' trusted components outside the enclave
	// (the CFT-equivalent variant of Sec. 5.4).
	AchillesC ProtocolKind = "Achilles-C"
	// DamysusR is chained Damysus with rollback prevention: every
	// checker access writes a persistent counter.
	DamysusR ProtocolKind = "Damysus-R"
	// Damysus is chained Damysus without rollback prevention.
	Damysus ProtocolKind = "Damysus"
	// OneShotR is OneShot with rollback prevention.
	OneShotR ProtocolKind = "OneShot-R"
	// OneShot is OneShot without rollback prevention.
	OneShot ProtocolKind = "OneShot"
	// FlexiBFT is the 3f+1 protocol of Gupta et al. with leader-only
	// counter accesses.
	FlexiBFT ProtocolKind = "FlexiBFT"
	// BRaft is the CFT yardstick (a Raft-style replica).
	BRaft ProtocolKind = "BRaft"
)

// Nodes returns the cluster size for fault threshold f under this
// protocol's resilience (3f+1 for FlexiBFT, 2f+1 otherwise).
func (p ProtocolKind) Nodes(f int) int {
	if p == FlexiBFT {
		return 3*f + 1
	}
	return 2*f + 1
}

// UsesCounter reports whether the protocol pays persistent-counter
// latency for rollback prevention.
func (p ProtocolKind) UsesCounter() bool {
	return p == DamysusR || p == OneShotR || p == FlexiBFT
}

// CostProfile models per-node CPU and device costs.
type CostProfile struct {
	Crypto              crypto.Costs
	TEE                 tee.CallCosts
	ExecPerTx           time.Duration
	EnclaveCryptoFactor float64
}

// DefaultCosts returns the calibrated cost profile (DESIGN.md §5.3).
func DefaultCosts() CostProfile {
	return CostProfile{
		Crypto:              crypto.DefaultCosts(),
		TEE:                 tee.DefaultCallCosts(),
		ExecPerTx:           600 * time.Nanosecond,
		EnclaveCryptoFactor: 1.7,
	}
}

// ClusterConfig describes a simulated deployment.
type ClusterConfig struct {
	Protocol    ProtocolKind
	F           int
	BatchSize   int
	PayloadSize int
	Net         sim.NetworkModel
	Seed        int64
	// Counter is the persistent-counter device used by protocols with
	// rollback prevention; zero value means counter.DefaultSpec.
	Counter counter.Spec
	Costs   CostProfile
	// BaseTimeout is the pacemaker's initial view timeout.
	BaseTimeout time.Duration
	// Synthetic saturates every block with generated transactions; set
	// false when driving the cluster with real clients (Fig. 4).
	Synthetic bool
	// PipelineDepth is how many chained heights the Achilles leaders
	// keep in flight at once (core.Config.PipelineDepth). 0 or 1 is the
	// historical lock-step hot path the golden tests pin.
	PipelineDepth int
	// Admission enables mempool admission control on the Achilles
	// replicas (depth bound, per-client rate limits, RETRY-AFTER
	// backpressure). The zero value disables it — the historical
	// behavior every golden test pins.
	Admission mempool.AdmissionConfig
	// Scheme overrides the signature scheme (default: FastScheme with
	// ECDSA-calibrated costs; see DESIGN.md §2).
	Scheme crypto.Scheme
	// RetainHeights and PruneInterval bound and pace block-body pruning
	// on the Achilles replicas (core.Config fields of the same names;
	// zero keeps the defaults). Tests shrink both so the past-horizon
	// snapshot catch-up path triggers at simulation-sized heights.
	RetainHeights uint64
	PruneInterval uint64
	// AblateFastPath and AblateReReply switch off, respectively, the
	// new-view fast path and the recovery re-reply refinement in the
	// Achilles replicas (ablation studies).
	AblateFastPath bool
	AblateReReply  bool
	// Observer receives the attested state transitions of every
	// Achilles replica (internal/adversary uses it for invariant
	// checking); nil disables observation.
	Observer core.StateObserver
	// WeakenChecker disables the listed nodes' checker equivocation
	// guards (checker.Config.UnsafeWeaken) so adversarial tests can
	// prove a broken TEE is caught. Never set outside such tests.
	WeakenChecker map[types.NodeID]bool
	// Wrap, if set, wraps every replica the cluster builds (including
	// post-reboot incarnations); internal/adversary injects Byzantine
	// behavior through it.
	Wrap  func(id types.NodeID, recovering bool, r protocol.Replica) protocol.Replica
	Debug io.Writer
}

func (c *ClusterConfig) fill() {
	if c.BatchSize == 0 {
		c.BatchSize = 400
	}
	if c.Net.RTT == 0 {
		c.Net = sim.LANModel()
	}
	if c.Counter.Name == "" {
		c.Counter = counter.DefaultSpec
	}
	if c.Costs == (CostProfile{}) {
		c.Costs = DefaultCosts()
	}
	if c.BaseTimeout == 0 {
		// The pacemaker timeout must comfortably exceed a view's
		// normal duration, which is dominated by the RTT plus (for
		// protocols with rollback prevention) several persistent
		// counter writes.
		c.BaseTimeout = 30 * c.Net.RTT
		if c.BaseTimeout < 30*time.Millisecond {
			c.BaseTimeout = 30 * time.Millisecond
		}
		if c.Protocol.UsesCounter() {
			c.BaseTimeout += 10 * c.Counter.WriteLatency
		}
	}
	if c.Scheme == nil {
		c.Scheme = crypto.FastScheme{}
	}
}

// Cluster is a running simulated deployment.
type Cluster struct {
	Config  ClusterConfig
	Engine  *sim.Engine
	N       int
	Metrics *Metrics

	ring   *crypto.KeyRing
	privs  map[types.NodeID]crypto.PrivateKey
	sealed map[types.NodeID]*tee.VersionedStore
}

// NewCluster builds a cluster of cfg.Protocol.Nodes(cfg.F) replicas on
// a fresh simulator. Call Engine.Start (or Run/Measure) to execute.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg.fill()
	n := cfg.Protocol.Nodes(cfg.F)
	c := &Cluster{
		Config: cfg,
		Engine: sim.New(cfg.Seed, cfg.Net),
		N:      n,
		ring:   crypto.NewKeyRing(),
		privs:  make(map[types.NodeID]crypto.PrivateKey),
		sealed: make(map[types.NodeID]*tee.VersionedStore),
	}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		priv, pub := cfg.Scheme.KeyPair(cfg.Seed, id)
		c.privs[id] = priv
		c.ring.Add(id, pub)
		c.sealed[id] = tee.NewVersionedStore()
	}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		c.Engine.AddNode(id, c.BuildReplica(id, false))
	}
	if cfg.Debug != nil {
		c.Engine.SetDebug(cfg.Debug)
	}
	return c
}

// Ring returns the cluster's PKI key ring (clients verify replies with
// it).
func (c *Cluster) Ring() *crypto.KeyRing { return c.ring }

// PrivateKey returns a node's signing key (used to register client
// identities in tests).
func (c *Cluster) PrivateKey(id types.NodeID) crypto.PrivateKey { return c.privs[id] }

// AddClientKey registers an additional (client) identity in the PKI.
func (c *Cluster) AddClientKey(id types.NodeID) crypto.PrivateKey {
	priv, pub := c.Config.Scheme.KeyPair(c.Config.Seed, id)
	c.ring.Add(id, pub)
	return priv
}

// SealedStore returns node id's untrusted sealed storage; it persists
// across that node's reboots, so tests can roll it back.
func (c *Cluster) SealedStore(id types.NodeID) *tee.VersionedStore { return c.sealed[id] }

// BuildReplica constructs a replica for node id. recovering marks a
// post-reboot incarnation that must run the recovery protocol first.
func (c *Cluster) BuildReplica(id types.NodeID, recovering bool) protocol.Replica {
	r := c.buildReplica(id, recovering)
	if c.Config.Wrap != nil {
		r = c.Config.Wrap(id, recovering, r)
	}
	return r
}

func (c *Cluster) buildReplica(id types.NodeID, recovering bool) protocol.Replica {
	cfg := c.Config
	base := protocol.Config{
		Self:        id,
		N:           c.N,
		F:           cfg.F,
		BatchSize:   cfg.BatchSize,
		PayloadSize: cfg.PayloadSize,
		BaseTimeout: cfg.BaseTimeout,
		Seed:        cfg.Seed,
	}
	var secret [32]byte
	secret[0] = byte(id)
	secret[1] = byte(id >> 8)

	switch cfg.Protocol {
	case Achilles, AchillesC:
		return core.New(core.Config{
			Config:    base,
			Admission: cfg.Admission,

			Scheme:              cfg.Scheme,
			Ring:                c.ring,
			Priv:                c.privs[id],
			CryptoCosts:         cfg.Costs.Crypto,
			TEECosts:            cfg.Costs.TEE,
			TEEDisabled:         cfg.Protocol == AchillesC,
			EnclaveCryptoFactor: cfg.Costs.EnclaveCryptoFactor,
			MachineSecret:       secret,
			SealedStore:         c.sealed[id],
			Recovering:          recovering,
			ExecCostPerTx:       cfg.Costs.ExecPerTx,
			SyntheticWorkload:   cfg.Synthetic,
			PipelineDepth:       cfg.PipelineDepth,
			DisableFastPath:     cfg.AblateFastPath,
			DisableReReply:      cfg.AblateReReply,
			RetainHeights:       cfg.RetainHeights,
			PruneInterval:       cfg.PruneInterval,
			Observer:            cfg.Observer,
			UnsafeWeakenChecker: cfg.WeakenChecker[id],
		})
	case Damysus, DamysusR:
		return damysus.New(damysus.Config{
			Config:              base,
			Scheme:              cfg.Scheme,
			Ring:                c.ring,
			Priv:                c.privs[id],
			CryptoCosts:         cfg.Costs.Crypto,
			TEECosts:            cfg.Costs.TEE,
			EnclaveCryptoFactor: cfg.Costs.EnclaveCryptoFactor,
			MachineSecret:       secret,
			SealedStore:         c.sealed[id],
			ExecCostPerTx:       cfg.Costs.ExecPerTx,
			SyntheticWorkload:   cfg.Synthetic,
			RollbackPrevention:  cfg.Protocol == DamysusR,
			CounterSpec:         cfg.Counter,
		})
	case OneShot, OneShotR:
		return oneshot.New(oneshot.Config{
			Config:              base,
			Scheme:              cfg.Scheme,
			Ring:                c.ring,
			Priv:                c.privs[id],
			CryptoCosts:         cfg.Costs.Crypto,
			TEECosts:            cfg.Costs.TEE,
			EnclaveCryptoFactor: cfg.Costs.EnclaveCryptoFactor,
			MachineSecret:       secret,
			SealedStore:         c.sealed[id],
			ExecCostPerTx:       cfg.Costs.ExecPerTx,
			SyntheticWorkload:   cfg.Synthetic,
			RollbackPrevention:  cfg.Protocol == OneShotR,
			CounterSpec:         cfg.Counter,
		})
	case FlexiBFT:
		return flexibft.New(flexibft.Config{
			Config:              base,
			Scheme:              cfg.Scheme,
			Ring:                c.ring,
			Priv:                c.privs[id],
			CryptoCosts:         cfg.Costs.Crypto,
			TEECosts:            cfg.Costs.TEE,
			EnclaveCryptoFactor: cfg.Costs.EnclaveCryptoFactor,
			MachineSecret:       secret,
			SealedStore:         c.sealed[id],
			ExecCostPerTx:       cfg.Costs.ExecPerTx,
			SyntheticWorkload:   cfg.Synthetic,
			CounterSpec:         cfg.Counter,
		})
	case BRaft:
		return raft.New(raft.Config{
			Config:            base,
			ExecCostPerTx:     cfg.Costs.ExecPerTx,
			SyntheticWorkload: cfg.Synthetic,
		})
	default:
		panic(fmt.Sprintf("harness: unknown protocol %q", cfg.Protocol))
	}
}

// CrashReboot schedules node id to crash at crashAt and reboot (in
// recovery mode) at rebootAt.
func (c *Cluster) CrashReboot(id types.NodeID, crashAt, rebootAt types.Time) {
	c.Engine.Crash(id, crashAt)
	c.Engine.Reboot(id, rebootAt, func() protocol.Replica { return c.BuildReplica(id, true) })
}

// Measure starts the cluster, runs warmup, measures for the given
// window, and returns the summarized result. Message counters are
// reset at the start of the window so MsgsPerBlock reflects steady
// state.
func (c *Cluster) Measure(warmup, window time.Duration) Result {
	m := NewMetrics(warmup, warmup+window)
	c.Metrics = m
	c.Engine.OnCommit = m.Observe
	c.Engine.Start()
	c.Engine.Run(warmup)
	c.Engine.ResetMessageCounts()
	c.Engine.Run(warmup + window)
	return m.Summarize(window, c.Engine.TotalMessages(), c.Engine.TotalBytes())
}
