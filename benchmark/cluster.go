package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

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

// The cluster every workload runs on: n=3 (f=1) in-process nodes on
// loopback TCP. Beyond identity, keys and these five values,
// core.Config and transport.Config stay at their zero values, so the
// numbers follow whatever achilles-node ships as its default.
const (
	nNodes      = 3
	fFaults     = 1
	batchSize   = 64
	payloadSize = 64
	baseTimeout = 500 * time.Millisecond
	keySeed     = 77
	victim      = types.NodeID(2)
	// wanOneWay is the delay netchaos injects into every write of the
	// WAN workload: 40 ms round trip, the paper's WAN row.
	wanOneWay = 20 * time.Millisecond
	// dialRetry and dialRetryMax replace the transport's reconnect
	// backoff (100 ms doubling to 3 s, each wait drawn uniformly from
	// [b/2, b] by an unseeded generator) on nodes and clients alike. With
	// the default, how long a rebooted node waits for its peers to redial
	// it is a draw of up to a second and more; that draw, not
	// Algorithm 3, would set recovery_s, and no number of reboots that
	// fits in a run makes its median repeat.
	dialRetry    = 10 * time.Millisecond
	dialRetryMax = 20 * time.Millisecond
	// firstPort keeps the benchmark's listeners clear of the 23xxx-28xxx
	// ports the repository's own tests bind.
	firstPort = 33100
	// tipSlack is how many heights behind the survivors' tip a rebooted
	// node's own commit may be and still count as "at the cluster tip":
	// a follower learns of a commit one DECIDE after the leader.
	tipSlack = 2
)

var registerOnce sync.Once

func registerMessages() {
	registerOnce.Do(func() {
		transport.RegisterMessages(
			&core.MsgNewView{}, &core.MsgProposal{}, &core.MsgVote{},
			&core.MsgDecide{}, &core.MsgRecoveryReq{}, &core.MsgRecoveryRpy{},
		)
	})
}

// capturedCommit is one committed block with the certificate that
// committed it, kept for the traced run's per-layer replay.
type capturedCommit struct {
	block *types.Block
	cc    *types.CommitCert
}

// commitLog is what one node (across all its incarnations) reported
// through OnCommit. The callback runs on the node's consensus goroutine,
// so it only indexes and counts; the checker reads it after the run.
type commitLog struct {
	mu     sync.Mutex
	hashes []types.Hash            // by height; zero = never committed here
	times  []int64                 // by height, ns since cluster epoch (traced runs)
	seen   map[types.NodeID][]byte // per client: commits per sequence number
	blocks uint64
	txs    uint64
	// forks records heights where two incarnations of this node
	// committed different blocks.
	forks    []types.Height
	captured []capturedCommit
	tip      atomic.Uint64
}

func (l *commitLog) record(b *types.Block, cc *types.CommitCert, at int64, stampTimes bool, capture int) {
	h := b.Hash()
	l.mu.Lock()
	defer l.mu.Unlock()
	for uint64(len(l.hashes)) <= uint64(b.Height) {
		l.hashes = append(l.hashes, types.ZeroHash)
		if stampTimes {
			l.times = append(l.times, 0)
		}
	}
	if prev := l.hashes[b.Height]; !prev.IsZero() {
		// A rebooted incarnation re-committing a height an earlier one
		// already reported: it must be the same block, and its
		// transactions were already counted.
		if prev != h {
			l.forks = append(l.forks, b.Height)
		}
		return
	}
	l.hashes[b.Height] = h
	if stampTimes {
		l.times[b.Height] = at
	}
	for i := range b.Txs {
		tx := &b.Txs[i]
		counts := l.seen[tx.Client]
		if uint32(len(counts)) <= tx.Seq {
			counts = append(counts, make([]byte, int(tx.Seq)-len(counts)+4096)...)
			l.seen[tx.Client] = counts
		}
		if counts[tx.Seq] < 255 {
			counts[tx.Seq]++
		}
	}
	l.blocks++
	l.txs += uint64(len(b.Txs))
	if len(l.captured) < capture && cc != nil && cc.Hash == h {
		l.captured = append(l.captured, capturedCommit{block: b, cc: cc})
	}
	if uint64(b.Height) > l.tip.Load() {
		l.tip.Store(uint64(b.Height))
	}
}

type clusterOpts struct {
	wan     bool
	durable bool
	dir     string // data root, required when durable
	// trace stamps the time of every OnCommit.
	trace bool
}

// captureBlocks bounds how many committed blocks a traced run keeps
// for the per-layer replay.
const captureBlocks = 512

type node struct {
	id      types.NodeID
	rt      *transport.Runtime
	rep     *core.Replica
	pool    *mempool.Pool
	reg     *obs.Registry
	sealed  *tee.VersionedStore
	durable *ledger.Durable
	log     *commitLog
	// totals sums the counters of every incarnation retired so far.
	totals counters
}

// counters are the counts the layers of one node export: frames and
// bytes sent to peers and frames dropped (transport.Runtime.Stats),
// trusted calls (tee.Enclave.Calls), transactions refused at admission
// (mempool.Pool.Stats) and views timed out with work pending (the
// achilles_view_timeouts_total series).
type counters struct {
	peerMsgs, peerBytes, sendDrops float64
	ecalls, rejected, viewTimeouts float64
}

type cluster struct {
	opts   clusterOpts
	epoch  time.Time
	scheme crypto.ECDSAScheme
	ring   *crypto.KeyRing
	privs  []crypto.PrivateKey
	peers  map[types.NodeID]string
	chaos  *netchaos.Chaos
	nodes  []*node

	// caughtUp receives the cluster-epoch time of the rebooted victim's
	// first own commit at the cluster tip, while awaiting is set.
	awaiting atomic.Bool
	caughtUp chan int64
	// capturing turns on, from the steady phase of a traced run, the
	// retention of node 0's committed blocks for the per-layer replay.
	capturing atomic.Bool
}

func (c *cluster) now() int64 { return int64(time.Since(c.epoch)) }

// freePorts finds n consecutive loopback ports that can be bound right
// now, probing upward from firstPort.
func freePorts(n int) (int, error) {
	free := func(base int) bool {
		for port := base; port < base+n; port++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
			if err != nil {
				return false
			}
			ln.Close()
		}
		return true
	}
	for base := firstPort; base < firstPort+4000; base += 16 {
		if free(base) {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no %d free consecutive ports from %d", n, firstPort)
}

// startCluster generates keys, opens storage and starts all nodes. It
// returns as soon as the listeners are bound; the first commit needs
// client traffic.
func startCluster(opts clusterOpts) (*cluster, error) {
	registerMessages()
	c := &cluster{opts: opts, epoch: time.Now(), ring: crypto.NewKeyRing(), caughtUp: make(chan int64, 1)}
	c.privs = make([]crypto.PrivateKey, nNodes)
	for i := 0; i < nNodes; i++ {
		p, pub := c.scheme.KeyPair(keySeed, types.NodeID(i))
		c.ring.Add(types.NodeID(i), pub)
		c.privs[i] = p
	}
	base, err := freePorts(nNodes)
	if err != nil {
		return nil, err
	}
	c.peers = transport.LocalPeers(nNodes, base)
	if opts.wan {
		c.chaos = netchaos.New(netchaos.Config{Seed: keySeed, Latency: wanOneWay})
	}
	for i := 0; i < nNodes; i++ {
		nd := &node{
			id:     types.NodeID(i),
			sealed: tee.NewVersionedStore(),
			log:    &commitLog{seen: make(map[types.NodeID][]byte)},
		}
		c.nodes = append(c.nodes, nd)
		if err := c.boot(nd, false); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// boot starts one incarnation of a node; recovering marks a reboot.
func (c *cluster) boot(nd *node, recovering bool) error {
	if c.opts.durable {
		d, err := ledger.OpenDurable(ledger.DurableOptions{
			Dir:   filepath.Join(c.opts.dir, fmt.Sprintf("node-%d", nd.id)),
			Fsync: wal.PolicyAlways,
		})
		if err != nil {
			return fmt.Errorf("open data directory of node %v: %w", nd.id, err)
		}
		nd.durable = d
	}
	nd.pool = mempool.New()
	nd.reg = obs.NewRegistry()
	var secret [32]byte
	secret[0] = byte(nd.id)
	nd.rep = core.New(core.Config{
		Config: protocol.Config{
			Self: nd.id, N: nNodes, F: fFaults,
			BatchSize: batchSize, PayloadSize: payloadSize,
			BaseTimeout: baseTimeout, Seed: keySeed,
		},
		Scheme:        c.scheme,
		Ring:          c.ring,
		Priv:          c.privs[nd.id],
		MachineSecret: secret,
		SealedStore:   nd.sealed,
		Recovering:    recovering,
		Pool:          nd.pool,
		Durable:       nd.durable,
		Obs:           nd.reg,
	})
	tcfg := transport.Config{
		Self:   nd.id,
		Listen: c.peers[nd.id],
		Peers:  c.peers,
		Scheme: c.scheme,
		Ring:   c.ring,
		Priv:   c.privs[nd.id],
		// See dialRetry.
		DialRetry:    dialRetry,
		DialRetryMax: dialRetryMax,
		OnCommit: func(b *types.Block, cc *types.CommitCert) {
			at := c.now()
			capture := 0
			if nd.id == 0 && c.capturing.Load() {
				capture = captureBlocks
			}
			nd.log.record(b, cc, at, c.opts.trace, capture)
			if nd.id == victim && c.awaiting.Load() && c.survivorTip() <= uint64(b.Height)+tipSlack {
				if c.awaiting.CompareAndSwap(true, false) {
					c.caughtUp <- at
				}
			}
		},
	}
	if c.chaos != nil {
		tcfg.Dial = c.chaos.Dialer(c.peers[nd.id])
		tcfg.WrapAccepted = c.chaos.WrapAccepted(c.peers[nd.id])
	}
	nd.rt = transport.New(tcfg, &initGate{inner: nd.rep})
	if err := nd.rt.Start(); err != nil {
		return fmt.Errorf("start node %v: %w", nd.id, err)
	}
	return nil
}

// initGate drops whatever reaches a replica before its Init has run.
// transport.Runtime.Start begins accepting connections before it
// queues Init, so a peer that connects at once (every peer does, when a
// node reboots into a running cluster) can get a frame delivered to a
// replica whose fields are still nil, which panics. To the protocol a
// dropped frame is message loss, which it tolerates. All three methods
// run on the runtime's one event-loop goroutine.
type initGate struct {
	inner *core.Replica
	ready bool
}

func (g *initGate) Init(env protocol.Env) {
	g.inner.Init(env)
	g.ready = true
}

func (g *initGate) OnMessage(from types.NodeID, msg types.Message) {
	if g.ready {
		g.inner.OnMessage(from, msg)
	}
}

func (g *initGate) OnTimer(id types.TimerID) {
	if g.ready {
		g.inner.OnTimer(id)
	}
}

func (c *cluster) survivorTip() uint64 {
	var tip uint64
	for _, nd := range c.nodes {
		if nd.id != victim {
			tip = max(tip, nd.log.tip.Load())
		}
	}
	return tip
}

// kill stops a node the way a crash does: the runtime goes away, the
// durable ledger is aborted without a final flush, and the sealed store
// is rolled back to the oldest version the enclave ever wrote (the
// rollback attack Algorithm 3 is built to survive).
func (c *cluster) kill(nd *node) {
	nd.retire()
	if nd.durable != nil {
		nd.durable.Abort()
		nd.durable = nil
	}
	nd.sealed.RollBackAll(0)
}

// retire stops a node's runtime and folds its counters into the
// node's totals.
func (nd *node) retire() {
	if nd.rt == nil {
		return
	}
	nd.rt.Stop()
	t := &nd.totals
	for id, s := range nd.rt.Stats() {
		t.sendDrops += float64(s.SendDrops)
		if !id.IsClient() {
			t.peerMsgs += float64(s.Sent)
			t.peerBytes += float64(s.BytesSent)
		}
	}
	if e := nd.rep.Enclave(); e != nil {
		t.ecalls += float64(e.Calls())
	}
	ps := nd.pool.Stats()
	t.rejected += float64(ps.RejectedFull + ps.RejectedRate)
	if v, ok := nd.reg.Value("achilles_view_timeouts_total"); ok {
		t.viewTimeouts += v
	}
	nd.rt = nil
}

// stop shuts every node down and closes the durable ledgers, reporting
// the first flush that failed.
func (c *cluster) stop() error {
	var first error
	for _, nd := range c.nodes {
		nd.retire()
		if nd.durable != nil {
			if err := nd.durable.Close(); err != nil && first == nil {
				first = fmt.Errorf("close data directory of node %v: %w", nd.id, err)
			}
			nd.durable = nil
		}
		// Runtime.Stop does not wait for the consensus goroutine to exit;
		// taking the log's lock once orders everything it recorded before
		// the unlocked reads that follow a stop.
		nd.log.mu.Lock()
		nd.log.mu.Unlock()
	}
	return first
}

// clientDialer is the dialer client connections use: behind the same
// injected delay as the nodes' links on the WAN workload.
func (c *cluster) clientDialer() func(network, addr string) (net.Conn, error) {
	if c.chaos == nil {
		return nil
	}
	return c.chaos.Dialer("bench-client")
}
