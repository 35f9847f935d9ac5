// Command achilles-node runs one Achilles consensus node over real TCP.
//
// A three-node local cluster:
//
//	achilles-node -id 0 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002" &
//	achilles-node -id 1 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002" &
//	achilles-node -id 2 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002" &
//	achilles-client -peers "..." -rate 1000
//
// Keys are derived deterministically from -seed for all peers, which
// stands in for the remote-attestation-based PKI of the real system
// (Sec. 4.5); every node must use the same -seed.
//
// With -admin-addr set, the node serves its admin/debug endpoints:
// /metrics (Prometheus), /status (JSON), /healthz, /trace and
// /debug/pprof/.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"achilles/internal/admin"
	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/ledger"
	"achilles/internal/mempool"
	"achilles/internal/netchaos"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/tee"
	"achilles/internal/transport"
	"achilles/internal/types"
	"achilles/internal/wal"
)

func main() {
	var (
		id        = flag.Int("id", 0, "node id (0..n-1)")
		peersFlag = flag.String("peers", "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002", "peer list id=host:port,...")
		batch     = flag.Int("batch", 400, "transactions per block")
		payload   = flag.Int("payload", 256, "payload bytes per synthetic transaction")
		seed      = flag.Int64("seed", 1, "deterministic key seed (same on all nodes)")
		timeout   = flag.Duration("timeout", 500*time.Millisecond, "base view timeout")
		synthetic = flag.Bool("synthetic", false, "saturate blocks with generated transactions")
		recover_  = flag.Bool("recover", false, "start in recovery mode (after a reboot)")
		dataDir   = flag.String("data-dir", "", "durable data directory (WAL, snapshots, sealed state); empty runs in-memory")
		fsyncPol  = flag.String("fsync", "batch", "WAL fsync policy: always (every append), batch (group commit), none (OS decides)")
		snapEvery = flag.Uint64("snapshot-interval", 512, "state snapshot every this many committed heights (with -data-dir)")
		pipeDepth = flag.Int("pipeline-depth", 1, "chained-consensus heights the leader keeps in flight (1 = classic lock-step; >1 proposes height h+1 before h commits)")
		retain    = flag.Uint64("retain-heights", 1024, "committed block bodies retained below the head before pruning; a rebooted empty node can only catch up by replay while peers still hold the bodies it missed")
		mpDepth   = flag.Int("mempool-depth", 0, "admission depth bound: reject client transactions once the pool holds this many (0 = unbounded, legacy behavior)")
		clRate    = flag.Float64("client-rate", 0, "per-client admitted transactions per second, enforced by a token bucket (0 = unlimited)")
		clBurst   = flag.Int("client-burst", 0, "token-bucket burst for -client-rate (0 = library default)")
		raDelay   = flag.Duration("retry-after", 0, "suggested backoff carried on RETRY-AFTER rejections (0 = library default)")
		adminAddr = flag.String("admin-addr", "", "serve admin endpoints (/metrics /status /healthz /trace /spans /debug/pprof) on host:port")
		traceSamp = flag.Int("trace-sample", 64, "causal tracing: sample one in N traces (0 disables span tracing)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		verbose   = flag.Bool("v", false, "verbose logging (same as -log-level debug)")
	)
	newChaos := netchaos.AddFlags(flag.CommandLine)
	flag.Parse()

	level := obs.ParseLevel(*logLevel)
	if *verbose {
		level = obs.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level).With("node", *id)
	mainLog := logger.Component("main")
	fatalf := func(format string, args ...any) {
		mainLog.Errorf(format, args...)
		os.Exit(1)
	}

	peers, err := transport.ParsePeers(*peersFlag)
	if err != nil {
		fatalf("bad -peers: %v", err)
	}
	n := len(peers)
	self := types.NodeID(*id)
	listen, ok := peers[self]
	if !ok {
		fatalf("id %d not in peer list", *id)
	}

	transport.RegisterMessages(
		&core.MsgNewView{}, &core.MsgProposal{}, &core.MsgVote{},
		&core.MsgDecide{}, &core.MsgRecoveryReq{}, &core.MsgRecoveryRpy{},
	)

	scheme := crypto.ECDSAScheme{}
	ring := crypto.NewKeyRing()
	var priv crypto.PrivateKey
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(*seed, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		if types.NodeID(i) == self {
			priv = p
		}
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(4096)
	var spans *obs.SpanTracer
	if *traceSamp > 0 {
		spans = obs.NewSpanTracer(obs.SpanConfig{
			SampleEvery: *traceSamp,
			Node:        uint64(self),
			Registry:    reg,
		})
	}

	pcfg := protocol.Config{
		Self: self, N: n, F: (n - 1) / 2,
		BatchSize: *batch, PayloadSize: *payload,
		BaseTimeout: *timeout, Seed: *seed,
	}

	// Mempool admission control: zero values leave the pool unbounded
	// (the historical behavior); any bound set turns on reject-not-block
	// overload handling with RETRY-AFTER responses to clients.
	admCfg := mempool.AdmissionConfig{
		MaxDepth:    *mpDepth,
		ClientRate:  *clRate,
		ClientBurst: *clBurst,
		RetryAfter:  *raDelay,
	}

	// Durable storage: with -data-dir the node opens a WAL-backed ledger
	// (restart restores committed state locally instead of replaying the
	// network) and keeps its enclave-sealed state on disk beside it.
	// Corruption of previously durable state is a refuse-to-start error:
	// silently dropping committed records would be a rollback.
	var (
		durable     *ledger.Durable
		sealedStore tee.SealedStore
	)
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsyncPol)
		if err != nil {
			fatalf("bad -fsync: %v", err)
		}
		ds, err := tee.NewDirStore(filepath.Join(*dataDir, "sealed"))
		if err != nil {
			fatalf("sealed store: %v", err)
		}
		sealedStore = ds
		durable, err = ledger.OpenDurable(ledger.DurableOptions{
			Dir:              *dataDir,
			Fsync:            policy,
			SnapshotInterval: types.Height(*snapEvery),
			Obs:              reg,
		})
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				fatalf("data directory %s is corrupted: %v\n(wipe the directory to rebuild this node from the cluster via snapshot transfer)", *dataDir, err)
			}
			fatalf("open data directory: %v", err)
		}
		rec := durable.Recovered()
		if h, _ := rec.Tip(); h > 0 {
			mainLog.Infof("durable state: committed height %d on disk (snapshot + %d WAL records, torn %d bytes)",
				h, len(rec.Commits), rec.WalInfo.TornBytes)
		}
	}

	// Anomaly flight recorder: dumps land under the data directory so
	// they survive the process (no -data-dir, no recorder). rep is
	// declared first so the Status hook can capture it; the recorder
	// never fires before Init completes.
	var rep *core.Replica
	var flight *obs.FlightRecorder
	if *dataDir != "" {
		flight, err = obs.NewFlightRecorder(obs.FlightConfig{
			Dir:      filepath.Join(*dataDir, "flight"),
			Node:     fmt.Sprintf("node-%d", self),
			Registry: reg,
			Tracer:   tracer,
			Spans:    spans,
			Logger:   logger.Component("flight"),
			Status: func() any {
				if rep == nil {
					return nil
				}
				return rep.Status()
			},
		})
		if err != nil {
			fatalf("flight recorder: %v", err)
		}
	}

	var secret [32]byte
	secret[0] = byte(self)
	// rt is assigned before rt.Start launches the consensus goroutine,
	// and epoch callbacks only ever fire from there.
	var rt *transport.Runtime
	rep = core.New(core.Config{
		Config:            pcfg,
		Scheme:            scheme,
		Ring:              ring,
		Priv:              priv,
		MachineSecret:     secret,
		SealedStore:       sealedStore,
		Recovering:        *recover_,
		SyntheticWorkload: *synthetic,
		PipelineDepth:     *pipeDepth,
		Admission:         admCfg,
		RetainHeights:     *retain,
		Durable:           durable,
		Obs:               reg,
		Trace:             tracer,
		Spans:             spans,
		Flight:            flight,
		// Reconfiguration wiring: resolve our own rotated keys by the
		// deterministic derivation convention, and rewire the transport
		// (peer set, handshake ring, advertised epoch) on activation.
		KeyByPub: func(pub []byte) crypto.PrivateKey {
			if p := rotationPrivFor(scheme, *seed, self, pub); p != nil {
				return p
			}
			if bytes.Equal(pub, scheme.MarshalPublic(ring.Get(self))) {
				return priv
			}
			return nil
		},
		OnEpochChange: func(m *types.Membership, epochRing *crypto.KeyRing) {
			if rt == nil {
				return
			}
			rt.SetEpoch(uint64(m.Epoch), m.ConfigHash())
			rt.SetRing(epochRing)
			// If this epoch rotated OUR key, future dials must present it:
			// peers verify handshakes against the new ring, so a Hello
			// signed with the old key would refuse every reconnect.
			if kb := m.Keys[self]; len(kb) > 0 {
				if p := rotationPrivFor(scheme, *seed, self, kb); p != nil {
					rt.SetPriv(p)
				}
			}
			// Peer table: dial new members at their advertised addresses,
			// keep original members on their boot addresses, drop evicted
			// ones. Self is never a peer.
			known := make(map[types.NodeID]bool)
			for _, pid := range rt.PeerIDs() {
				known[pid] = true
			}
			for _, mid := range m.Members {
				if mid == self {
					continue
				}
				if addr := m.Addrs[mid]; addr != "" {
					rt.AddPeer(mid, addr)
				}
				delete(known, mid)
			}
			for pid := range known {
				rt.RemovePeer(pid)
			}
			mainLog.Infof("epoch %d wired: n=%d quorum=%d members=%v", m.Epoch, m.N(), m.Quorum(), m.Members)
		},
	})

	var committed, txs atomic.Uint64
	tcfg := transport.Config{
		Self:   self,
		Listen: listen,
		Peers:  peers,
		Scheme: scheme,
		Ring:   ring,
		Priv:   priv,
		Log:    logger,
		OnCommit: func(b *types.Block, _ *types.CommitCert) {
			committed.Add(1)
			txs.Add(uint64(len(b.Txs)))
		},
	}
	chaosLog := logger.Component("netchaos")
	chaos := newChaos(chaosLog.Logf)
	if chaos != nil {
		tcfg.Dial = chaos.Dialer(listen)
		tcfg.WrapAccepted = chaos.WrapAccepted(listen)
		mainLog.Infof("netchaos fault injection enabled")
	}
	rt = transport.New(tcfg, rep)
	if err := rt.Start(); err != nil {
		fatalf("start: %v", err)
	}
	mainLog.Infof("listening on %s (n=%d f=%d)", listen, n, (n-1)/2)

	// A node restarting after reconfigurations restores its membership
	// during Init (async on the event loop). Once it settles, align the
	// transport with the restored epoch: handshake ring, advertised
	// epoch, and — when our own key was rotated — the Hello signing key.
	// Later activations keep this current via OnEpochChange.
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			m := rep.Membership()
			if m == nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if m.Epoch > 0 {
				if epochRing, err := crypto.RingFromKeys(scheme, m.Keys); err == nil {
					rt.SetRing(epochRing)
				}
				rt.SetEpoch(uint64(m.Epoch), m.ConfigHash())
				if kb := m.Keys[self]; len(kb) > 0 {
					if p := rotationPrivFor(scheme, *seed, self, kb); p != nil {
						rt.SetPriv(p)
					}
				}
				mainLog.Infof("restored epoch %d wired: n=%d members=%v", m.Epoch, m.N(), m.Members)
			}
			return
		}
	}()

	if *adminAddr != "" {
		srv, err := admin.Start(*adminAddr, admin.Config{
			Registry: reg,
			Tracer:   tracer,
			Spans:    spans,
			Logger:   logger.Component("admin"),
			Replica:  rep,
			Runtime:  rt,
			Chaos:    chaos,
		})
		if err != nil {
			fatalf("admin server: %v", err)
		}
		defer srv.Close()
		mainLog.Infof("admin endpoints on http://%s/metrics", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var lastTxs uint64
	for {
		select {
		case <-tick.C:
			st := rep.Status()
			cur := txs.Load()
			mainLog.With("view", st.View, "height", st.Height).
				Infof("committed-blocks=%d committed-tx/s=%d total-tx=%d", committed.Load(), cur-lastTxs, cur)
			lastTxs = cur
			// Commit-stall anomaly: the node committed before but has
			// stopped for longer than the health lag bound. The recorder's
			// own rate limit keeps a long outage from flooding the disk.
			if flight != nil && !st.Recovering && st.LastCommitAgoSeconds > 10 {
				flight.Trigger("commit-stall", st.View, st.Height,
					fmt.Sprintf("last_commit_ago=%.1fs", st.LastCommitAgoSeconds))
			}
		case <-sig:
			// Graceful shutdown: stop the transport first (no more
			// commits arrive), then flush and close the WAL so every
			// acknowledged commit is on disk before exit.
			mainLog.Infof("shutting down")
			rt.Stop()
			if durable != nil {
				if err := durable.Close(); err != nil {
					mainLog.Errorf("closing data directory: %v", err)
					os.Exit(1)
				}
				mainLog.Infof("data directory flushed and closed")
			}
			if chaos != nil {
				st := chaos.Stats()
				mainLog.Infof("netchaos: writes=%d drops=%d resets=%d denies=%d dials=%d denied-dials=%d",
					st.Writes, st.Drops, st.Resets, st.Denies, st.Dials, st.DialsDenied)
			}
			return
		}
	}
}

// rotationProbeLimit bounds the epoch range searched when resolving a
// rotated key of our own: key resolution runs only at boot and at
// epoch activation, so a few hundred key derivations are immaterial.
const rotationProbeLimit = 256

// rotationPrivFor searches the deterministic rotation-key space
// (crypto.RotationKeyPair, epochs 1..rotationProbeLimit) for the
// private half matching pub; nil when no epoch's derived key matches.
func rotationPrivFor(scheme crypto.Scheme, seed int64, id types.NodeID, pub []byte) crypto.PrivateKey {
	for e := uint64(1); e <= rotationProbeLimit; e++ {
		p, pk := crypto.RotationKeyPair(scheme, seed, e, id)
		if bytes.Equal(pub, scheme.MarshalPublic(pk)) {
			return p
		}
	}
	return nil
}
