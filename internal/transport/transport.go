// Package transport is the live-network runtime: it drives the same
// protocol replicas the simulator runs, but over real TCP connections
// (stdlib net) with length-prefixed gob frames — the deployment path
// used by cmd/achilles-node, cmd/achilles-client and the examples.
//
// Concurrency model: all replica callbacks run on a single event-loop
// goroutine per Runtime, matching the single-threaded contract of
// protocol.Env. Reader and writer goroutines only move frames between
// sockets and the event channel.
//
// Hardening (mirroring what the paper's salticidae deployment gets from
// its secure channels, Sec. 3.1/5.1):
//
//   - the first frame on every accepted connection must be a valid
//     Hello; replica Hellos carry an ECDSA signature over a monotonic
//     nonce, so an acceptor cannot be spoofed into mis-attributing
//     consensus traffic, and every later frame is attributed to the
//     authenticated connection identity rather than its claimed sender;
//   - dialers reconnect with jittered exponential backoff (capped),
//     send periodic keepalive pings, and acceptors enforce read
//     deadlines so dead connections are reaped;
//   - the newest authenticated connection per peer supersedes stale
//     ones, and reply routes are evicted when their connection dies;
//   - Stop drains outbound queues before tearing writers down;
//   - per-peer counters (sends, drops, reconnects, bytes) are exposed
//     through Stats().
//
// Fault injection: Config.Dial and Config.WrapAccepted accept hooks
// (see internal/netchaos) that stand in for the NetEm fault injection
// of the paper's testbed on the live path.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/crypto"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/sched"
	"achilles/internal/types"
)

// Hello is the connection handshake: the first frame on every dialed
// connection carries it so the acceptor learns — and, for replica
// connections, cryptographically verifies — the sender's identity.
type Hello struct {
	// From is the dialer's identity; it must match the frame envelope.
	From types.NodeID
	// Nonce increases strictly across a process's connections (it is
	// derived from wall time), ordering connections from the same peer
	// so the acceptor can reject stale or replayed handshakes and let
	// the newest connection supersede older ones.
	Nonce uint64
	// Sig signs crypto.HandshakePayload(From, Nonce) with the dialer's
	// private key. Empty for clients (which hold no ring key) and in
	// unauthenticated deployments (no Ring configured).
	Sig types.Signature
	// Epoch and ConfigHash advertise the dialer's active configuration
	// epoch (gob-additive; zero from pre-reconfiguration builds and
	// clients). Epochs may legitimately differ by the activation skew of
	// a rolling upgrade, but two replicas claiming the SAME nonzero
	// epoch under different config hashes have diverged and the
	// connection is refused.
	Epoch      uint64
	ConfigHash types.Hash
}

// Type implements types.Message.
func (*Hello) Type() string { return "transport/hello" }

// Size implements types.Message.
func (*Hello) Size() int { return 4 + 8 + 72 }

// Ping is the keepalive frame dialers send on idle connections so
// acceptors' read deadlines are refreshed.
type Ping struct{}

// Type implements types.Message.
func (*Ping) Type() string { return "transport/ping" }

// Size implements types.Message.
func (*Ping) Size() int { return 1 }

func init() {
	RegisterMessages(
		&Hello{},
		&Ping{},
		&types.ClientRequest{},
		&types.ClientReply{},
		&types.ClientRetry{},
		&types.BlockRequest{},
		&types.BlockResponse{},
		&types.BlockUnavailable{},
		&types.SnapshotRequest{},
		&types.SnapshotChunk{},
	)
}

// Config configures a live runtime.
type Config struct {
	// Self is this process's identity.
	Self types.NodeID
	// Listen is the local listen address ("" for client-only runtimes
	// that never accept connections).
	Listen string
	// Peers maps consensus node identities to their dial addresses.
	Peers map[types.NodeID]string
	// OnCommit observes commits (may be nil).
	OnCommit func(b *types.Block, cc *types.CommitCert)
	// Log receives runtime diagnostics as structured lines. When nil,
	// Logf (below) is adapted instead; both nil silences the transport.
	Log *obs.Logger
	// Logf is the legacy printf diagnostics sink (may be nil). Ignored
	// when Log is set.
	Logf func(format string, args ...any)

	// Scheme and Priv sign this node's Hello handshakes; Ring lets the
	// acceptor verify peers'. All three nil yields an unauthenticated
	// transport (examples, clients). With a Ring set, connections
	// claiming a replica identity must present a valid signature.
	Scheme crypto.Scheme
	Priv   crypto.PrivateKey
	Ring   *crypto.KeyRing

	// Dial overrides the dialer — the netchaos fault-injection hook.
	// nil uses net.DialTimeout.
	Dial func(network, addr string) (net.Conn, error)
	// WrapAccepted wraps accepted connections (fault injection). nil
	// is the identity.
	WrapAccepted func(net.Conn) net.Conn

	// DialRetry is the initial reconnect backoff (default 100 ms). It
	// grows exponentially with ±50% jitter up to DialRetryMax
	// (default 3 s).
	DialRetry    time.Duration
	DialRetryMax time.Duration
	// KeepAlive is the idle ping period on dialed connections
	// (default 1 s; negative disables).
	KeepAlive time.Duration
	// ReadTimeout reaps accepted connections idle longer than this
	// (default 4×KeepAlive; negative disables).
	ReadTimeout time.Duration
	// DrainTimeout bounds how long Stop waits for outbound queues to
	// flush (default 500 ms).
	DrainTimeout time.Duration

	// ClientQueue bounds the client-lane event queue (default 4096).
	// Consensus, recovery and timer events travel a separate priority
	// queue that the event loop always drains first; client submission
	// steps that find the client lane full are dropped (counted in
	// ClientLaneDrops) rather than allowed to starve consensus. A shed
	// step loses that submission; the client's retransmit or timeout
	// covers it.
	ClientQueue int

	// ReplyQueue bounds each client route's outbound reply queue
	// (default 1024). Replies to a client whose connection cannot keep
	// up are dropped (counted in that client's SendDrops) rather than
	// allowed to block the sender — the BFT client contract already
	// tolerates lost replies (any one certified reply confirms a
	// commit, and unconfirmed requests are retried or timed out).
	ReplyQueue int
}

// PeerStats is a snapshot of per-peer transport counters.
type PeerStats struct {
	// Sent counts frames written to the peer; BytesSent their size.
	Sent, BytesSent uint64
	// SendDrops counts frames lost locally: queue overflow or a write
	// that failed mid-connection.
	SendDrops uint64
	// Received counts frames read from the peer; BytesReceived their
	// size; ReceiveDrops frames discarded (mis-attributed senders).
	Received, BytesReceived, ReceiveDrops uint64
	// Reconnects counts established outbound connections beyond the
	// first.
	Reconnects uint64
}

// peerStats is the internal, atomically-updated form.
type peerStats struct {
	sent, bytesSent, sendDrops            atomic.Uint64
	received, bytesReceived, receiveDrops atomic.Uint64
	connects                              atomic.Uint64
}

// route is an identified inbound connection: the reply path for
// clients, and the supersession/eviction record for replica peers.
// Client routes own a bounded reply queue drained by a dedicated
// writer goroutine (replyLoop), so a slow client socket can never
// stall the goroutine sending the reply — under WAN-shaped latency a
// synchronous reply write would block the consensus goroutine that
// sends replies inline, and consensus broadcasts behind it (priority
// inversion).
type route struct {
	conn   net.Conn
	nonce  uint64
	ch     chan *frame // nil for peer routes (peers are written via dialers)
	closed bool        // guarded by Runtime.mu; ch closed exactly once
}

// closeRouteLocked closes a route's reply queue exactly once. Caller
// holds Runtime.mu.
func closeRouteLocked(r *route) {
	if r.ch != nil && !r.closed {
		r.closed = true
		close(r.ch)
	}
}

// Runtime drives one replica over TCP.
type Runtime struct {
	cfg     Config
	replica protocol.Replica
	log     *obs.Logger
	sched   *sched.Sync

	start    time.Time
	events   chan func()
	bulk     chan func()   // client-lane steps; drained only when events is empty
	stopping chan struct{} // soft stop: writers drain their queues
	done     chan struct{} // hard stop: event loop and readers exit
	closing  sync.Once
	listener net.Listener
	writers  sync.WaitGroup
	repliers sync.WaitGroup

	helloNonce atomic.Uint64
	laneDrops  atomic.Uint64
	// traceCtx is the packed types.TraceContext stamped onto outbound
	// frames: set by the inbound step wrapper for the duration of each
	// consensus step (so responses continue the sender's trace) and
	// overridden through SetTraceContext when the replica mints a new
	// trace (a leader proposing a height).
	traceCtx atomic.Uint64

	// Dynamic configuration (reconfiguration support): the live peer
	// table and verification ring start from Config.Peers/Config.Ring
	// and are rewired through AddPeer/RemovePeer/SetRing as epochs
	// activate. epoch/configHash are advertised on outbound handshakes.
	ring       atomic.Pointer[crypto.KeyRing]
	epoch      atomic.Uint64
	configHash atomic.Pointer[types.Hash]
	// helloPriv signs outbound handshakes; starts as Config.Priv and is
	// swapped through SetPriv when this node's own ring key rotates —
	// new dials after a rotation must present the key peers' current
	// epoch ring expects, or every reconnect would be refused.
	helloPriv atomic.Pointer[crypto.PrivateKey]

	mu        sync.Mutex
	stopped   bool
	peers     map[types.NodeID]string
	outbound  map[types.NodeID]*dialer
	routes    map[types.NodeID]*route
	lastHello map[types.NodeID]uint64
	stats     map[types.NodeID]*peerStats
}

// dialer is the outbound lane to one peer: its frame queue and the
// stop signal RemovePeer uses to retire the writer goroutine.
type dialer struct {
	ch   chan *frame
	stop chan struct{}
}

// New creates a runtime for the replica.
func New(cfg Config, r protocol.Replica) *Runtime {
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 100 * time.Millisecond
	}
	if cfg.DialRetryMax == 0 {
		cfg.DialRetryMax = 3 * time.Second
	}
	if cfg.KeepAlive == 0 {
		cfg.KeepAlive = time.Second
	}
	if cfg.ReadTimeout == 0 {
		if cfg.KeepAlive > 0 {
			cfg.ReadTimeout = 4 * cfg.KeepAlive
		} else {
			cfg.ReadTimeout = 4 * time.Second
		}
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 500 * time.Millisecond
	}
	log := cfg.Log
	if log == nil {
		log = obs.NewFuncLogger(cfg.Logf, obs.LevelDebug)
	}
	if cfg.ClientQueue <= 0 {
		cfg.ClientQueue = 4096
	}
	if cfg.ReplyQueue <= 0 {
		cfg.ReplyQueue = 1024
	}
	rt := &Runtime{
		cfg:       cfg,
		log:       log.Component("transport"),
		replica:   r,
		sched:     sched.NewSync(),
		events:    make(chan func(), 4096),
		bulk:      make(chan func(), cfg.ClientQueue),
		stopping:  make(chan struct{}),
		done:      make(chan struct{}),
		peers:     make(map[types.NodeID]string, len(cfg.Peers)),
		outbound:  make(map[types.NodeID]*dialer),
		routes:    make(map[types.NodeID]*route),
		lastHello: make(map[types.NodeID]uint64),
		stats:     make(map[types.NodeID]*peerStats),
	}
	for id, addr := range cfg.Peers {
		rt.peers[id] = addr
	}
	rt.ring.Store(cfg.Ring)
	if cfg.Priv != nil {
		rt.helloPriv.Store(&cfg.Priv)
	}
	// The ingress hop's sink is the event loop: delivered steps run
	// single-threaded, in delivery order within a lane, like every
	// other event. Consensus-lane steps block the submitter when
	// the queue is full (backpressure through the reader, exactly the
	// historical behavior); client-lane steps are shed instead, because
	// a flood of submissions must never be able to wedge the loop that
	// keeps consensus and recovery alive. Dropping the step once the
	// runtime is done matches the historical readLoop behavior.
	rt.sched.Bind(func(lane sched.Lane, step func()) {
		if lane == sched.LaneClient {
			select {
			case rt.bulk <- step:
			default:
				rt.laneDrops.Add(1)
				rt.log.Limitf(obs.LevelWarn, "clientlane", time.Second,
					"client lane full; shedding submission steps")
			}
			return
		}
		select {
		case rt.events <- step:
		case <-rt.done:
		}
	})
	return rt
}

// ClientLaneDrops reports how many client-lane steps were shed because
// the bulk event queue was full.
func (rt *Runtime) ClientLaneDrops() uint64 { return rt.laneDrops.Load() }

// Start begins listening, dialing and the event loop. It returns once
// the listener is bound (or immediately for client-only runtimes).
func (rt *Runtime) Start() error {
	rt.start = time.Now()
	// Init is the first event, queued before any reader can exist: a
	// peer that connects at once (every peer does when a node reboots
	// into a running cluster) must never reach an uninitialized replica.
	rt.events <- func() { rt.replica.Init(rt) }
	if rt.cfg.Listen != "" {
		ln, err := net.Listen("tcp", rt.cfg.Listen)
		if err != nil {
			return err
		}
		rt.listener = ln
		go rt.acceptLoop(ln)
	}
	rt.mu.Lock()
	peers := make(map[types.NodeID]string, len(rt.peers))
	for id, addr := range rt.peers {
		peers[id] = addr
	}
	rt.mu.Unlock()
	for id, addr := range peers {
		if id == rt.cfg.Self {
			continue
		}
		rt.ensureDialer(id, addr)
	}
	go rt.eventLoop()
	return nil
}

// Addr returns the bound listen address (for tests using port 0).
func (rt *Runtime) Addr() string {
	if rt.listener == nil {
		return ""
	}
	return rt.listener.Addr().String()
}

// Stop shuts the runtime down gracefully: the listener closes
// immediately, writers get up to DrainTimeout to flush queued frames
// over their existing connections, then everything tears down.
func (rt *Runtime) Stop() {
	rt.closing.Do(func() {
		rt.mu.Lock()
		rt.stopped = true
		rt.mu.Unlock()
		close(rt.stopping)
		if rt.listener != nil {
			rt.listener.Close()
		}
		flushed := make(chan struct{})
		go func() {
			rt.writers.Wait()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-time.After(rt.cfg.DrainTimeout + 100*time.Millisecond):
		}
		close(rt.done)
		rt.mu.Lock()
		for _, r := range rt.routes {
			r.conn.Close()
			closeRouteLocked(r)
		}
		rt.mu.Unlock()
		rt.repliers.Wait()
	})
}

// Stats returns a snapshot of the per-peer transport counters.
func (rt *Runtime) Stats() map[types.NodeID]PeerStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[types.NodeID]PeerStats, len(rt.stats))
	for id, st := range rt.stats {
		connects := st.connects.Load()
		var reconnects uint64
		if connects > 1 {
			reconnects = connects - 1
		}
		out[id] = PeerStats{
			Sent:          st.sent.Load(),
			BytesSent:     st.bytesSent.Load(),
			SendDrops:     st.sendDrops.Load(),
			Received:      st.received.Load(),
			BytesReceived: st.bytesReceived.Load(),
			ReceiveDrops:  st.receiveDrops.Load(),
			Reconnects:    reconnects,
		}
	}
	return out
}

// ActiveRoutes returns the number of live identified inbound
// connections (client reply routes and accepted peer connections).
func (rt *Runtime) ActiveRoutes() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.routes)
}

func (rt *Runtime) statsFor(id types.NodeID) *peerStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.stats[id]
	if st == nil {
		st = &peerStats{}
		rt.stats[id] = st
	}
	return st
}

func (rt *Runtime) logf(format string, args ...any) {
	rt.log.Infof(format, args...)
}

func (rt *Runtime) eventLoop() {
	for {
		// Priority drain: run every pending consensus-lane event before
		// touching the client lane, so bulk submissions can delay client
		// admission but never protocol progress or recovery.
		select {
		case <-rt.done:
			return
		case fn := <-rt.events:
			fn()
			continue
		default:
		}
		select {
		case <-rt.done:
			return
		case fn := <-rt.events:
			fn()
		case fn := <-rt.bulk:
			fn()
		}
	}
}

// acceptLoop accepts connections until the listener closes. Transient
// accept errors (EMFILE, ECONNABORTED, ...) are retried with capped
// backoff instead of abandoning the listener.
func (rt *Runtime) acceptLoop(ln net.Listener) {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-rt.stopping:
				return
			case <-rt.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			rt.logf("accept: %v (retrying in %v)", err, backoff)
			select {
			case <-rt.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		if rt.cfg.WrapAccepted != nil {
			conn = rt.cfg.WrapAccepted(conn)
		}
		go rt.readLoop(conn, 0, true)
	}
}

// nextNonce returns a handshake nonce that increases strictly across
// this process's connections and across process restarts (it is
// anchored to wall time).
func (rt *Runtime) nextNonce() uint64 {
	for {
		now := uint64(time.Now().UnixNano())
		prev := rt.helloNonce.Load()
		n := now
		if n <= prev {
			n = prev + 1
		}
		if rt.helloNonce.CompareAndSwap(prev, n) {
			return n
		}
	}
}

// helloFrame builds this node's signed handshake frame, advertising
// the active configuration epoch.
func (rt *Runtime) helloFrame() *frame {
	h := &Hello{From: rt.cfg.Self, Nonce: rt.nextNonce(), Epoch: rt.epoch.Load()}
	if ch := rt.configHash.Load(); ch != nil {
		h.ConfigHash = *ch
	}
	if priv := rt.helloPriv.Load(); rt.cfg.Scheme != nil && priv != nil {
		h.Sig = rt.cfg.Scheme.Sign(*priv, crypto.HandshakePayload(h.From, h.Nonce))
	}
	return &frame{From: rt.cfg.Self, Msg: h}
}

// authenticateHello validates an accepted connection's handshake.
// Replica identities must present a valid signature when a Ring is
// configured; client identities hold no ring key and are accepted on
// their word (they can only receive replies, never inject consensus
// traffic attributed to a replica).
func (rt *Runtime) authenticateHello(h *Hello) bool {
	if h.From == rt.cfg.Self {
		return false
	}
	if h.From.IsClient() {
		return true
	}
	// Epoch binding: rolling activation legitimately skews epochs across
	// peers for a few heights, so differing epochs pass — but a peer
	// claiming OUR nonzero epoch under a different config hash has
	// diverged (or is replaying an evicted configuration) and is refused.
	if our := rt.epoch.Load(); our > 0 && h.Epoch == our {
		if ch := rt.configHash.Load(); ch != nil && h.ConfigHash != (types.Hash{}) && h.ConfigHash != *ch {
			rt.logf("rejecting %v: epoch %d config hash mismatch", h.From, h.Epoch)
			return false
		}
	}
	ring := rt.ring.Load()
	if ring == nil || rt.cfg.Scheme == nil {
		return true
	}
	pk := ring.Get(h.From)
	if pk == nil {
		return false
	}
	return rt.cfg.Scheme.Verify(pk, crypto.HandshakePayload(h.From, h.Nonce), h.Sig)
}

// registerRoute installs an identified inbound connection, enforcing
// handshake-nonce monotonicity (stale or replayed handshakes are
// rejected) and connection supersession (the newest connection per
// peer wins; the stale one is closed).
func (rt *Runtime) registerRoute(id types.NodeID, conn net.Conn, nonce uint64) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if nonce <= rt.lastHello[id] {
		return false
	}
	rt.lastHello[id] = nonce
	if old := rt.routes[id]; old != nil && old.conn != conn {
		old.conn.Close()
		closeRouteLocked(old)
	}
	r := &route{conn: conn, nonce: nonce}
	if _, isPeer := rt.peers[id]; !isPeer && !rt.stopped {
		// Client route: replies go through a bounded queue and a
		// dedicated writer, never a synchronous socket write on the
		// sender's goroutine.
		r.ch = make(chan *frame, rt.cfg.ReplyQueue)
		rt.repliers.Add(1)
		go rt.replyLoop(id, conn, r.ch)
	}
	rt.routes[id] = r
	return true
}

// replyLoop drains one client route's reply queue onto its socket.
// After a write failure the connection is closed (its readLoop evicts
// the route, which closes ch) and anything still queued is dropped.
func (rt *Runtime) replyLoop(id types.NodeID, conn net.Conn, ch chan *frame) {
	defer rt.repliers.Done()
	st := rt.statsFor(id)
	dead := false
	for f := range ch {
		if dead {
			st.sendDrops.Add(1)
			continue
		}
		bp, err := encodeFrame(f)
		if err != nil {
			rt.logf("encode %s: %v", frameType(f), err)
			continue
		}
		n := len(*bp)
		_, werr := conn.Write(*bp)
		releaseFrameBuf(bp)
		if werr != nil {
			rt.logf("reply to %v: %v", id, werr)
			st.sendDrops.Add(1)
			// Force eviction through the connection's readLoop.
			conn.Close()
			dead = true
			continue
		}
		st.sent.Add(1)
		st.bytesSent.Add(uint64(n))
	}
}

// dropRoute evicts a dead inbound connection's reply route, unless a
// newer connection already superseded it.
func (rt *Runtime) dropRoute(id types.NodeID, conn net.Conn) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if r := rt.routes[id]; r != nil && r.conn == conn {
		closeRouteLocked(r)
		delete(rt.routes, id)
	}
}

// readLoop receives frames from one connection and feeds the event
// loop. Accepted connections must open with a valid Hello, which binds
// the connection to an identity; dialed connections are bound to the
// peer they were dialed to. Frames claiming any other sender are
// discarded, so message attribution follows the (authenticated)
// connection, not the envelope.
func (rt *Runtime) readLoop(conn net.Conn, expect types.NodeID, accepted bool) {
	identity := expect
	registered := false
	var st *peerStats
	defer func() {
		conn.Close()
		if registered {
			rt.dropRoute(identity, conn)
		}
	}()
	awaitHello := accepted
	for {
		if accepted && rt.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(rt.cfg.ReadTimeout))
		}
		f, n, err := readFrameConn(conn)
		if err != nil {
			// A malformed-but-fully-framed body from an authenticated
			// peer is dropped without killing the connection: an attacker
			// gains nothing, and an honest peer's stream survives a
			// corrupted message. Anything else — including garbage during
			// the handshake — poisons the connection.
			if errors.Is(err, ErrBadFrame) && registered {
				if st == nil {
					st = rt.statsFor(identity)
				}
				st.receiveDrops.Add(1)
				st.bytesReceived.Add(uint64(n))
				rt.log.Limitf(obs.LevelWarn, fmt.Sprintf("badframe:%v", identity), time.Second,
					"dropping malformed frame from %v: %v", identity, err)
				continue
			}
			return
		}
		if awaitHello {
			awaitHello = false
			h, ok := f.Msg.(*Hello)
			if !ok {
				rt.logf("rejecting %v: first frame %s is not a handshake", conn.RemoteAddr(), frameType(f))
				return
			}
			if f.From != h.From || !rt.authenticateHello(h) {
				rt.logf("rejecting %v: invalid handshake for %v", conn.RemoteAddr(), h.From)
				return
			}
			if !rt.registerRoute(h.From, conn, h.Nonce) {
				rt.logf("rejecting %v: stale handshake for %v", conn.RemoteAddr(), h.From)
				return
			}
			identity = h.From
			registered = true
			continue
		}
		if st == nil {
			st = rt.statsFor(identity)
		}
		st.received.Add(1)
		st.bytesReceived.Add(uint64(n))
		if f.Msg == nil {
			continue
		}
		switch f.Msg.(type) {
		case *Hello, *Ping: // keepalive / duplicate handshake: deadline already refreshed
			continue
		}
		if f.From != identity {
			st.receiveDrops.Add(1)
			rt.logf("dropping %s from %v claiming to be %v", f.Msg.Type(), identity, f.From)
			continue
		}
		from, msg, tc := identity, f.Msg, f.Trace
		// Hand the decoded frame's step to the event loop, on its lane
		// (a full consensus lane blocks this reader — backpressure that
		// slows the peer instead of silently dropping frames). The
		// frame's trace context becomes the runtime's outbound context
		// for the duration of the step, so whatever the handler sends
		// (votes, decides) stays on the sender's trace.
		rt.sched.Ingress(from, msg, tc, func() {
			rt.traceCtx.Store(tc.Pack())
			rt.replica.OnMessage(from, msg)
			rt.traceCtx.Store(0)
		})
		select {
		case <-rt.done:
			return
		default:
		}
	}
}

// ensureDialer starts (once) the writer goroutine that owns the
// outbound connection to a peer, reconnecting with backoff.
func (rt *Runtime) ensureDialer(id types.NodeID, addr string) *dialer {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if d, ok := rt.outbound[id]; ok {
		return d
	}
	d := &dialer{ch: make(chan *frame, 1024), stop: make(chan struct{})}
	rt.outbound[id] = d
	if !rt.stopped {
		rt.writers.Add(1)
		go rt.writeLoop(id, addr, d)
	}
	return d
}

func (rt *Runtime) dial(addr string) (net.Conn, error) {
	if rt.cfg.Dial != nil {
		return rt.cfg.Dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// writeLoop owns the outbound connection to one peer: it dials with
// jittered exponential backoff, handshakes, keeps the connection alive
// with pings, and on Stop drains its queue before exiting.
func (rt *Runtime) writeLoop(id types.NodeID, addr string, d *dialer) {
	defer rt.writers.Done()
	ch := d.ch
	st := rt.statsFor(id)
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()

	// write sends one frame on the current connection; on failure the
	// connection is dropped (the frame is lost — consensus protocols
	// tolerate message loss, and the next send reconnects).
	write := func(f *frame) {
		bp, err := encodeFrame(f)
		if err != nil {
			rt.logf("encode %s: %v", frameType(f), err)
			return
		}
		n := len(*bp)
		_, werr := conn.Write(*bp)
		releaseFrameBuf(bp)
		if werr != nil {
			rt.logf("write to %v (%s): %v", id, addr, werr)
			conn.Close()
			conn = nil
			st.sendDrops.Add(1)
			return
		}
		st.sent.Add(1)
		st.bytesSent.Add(uint64(n))
	}

	// connect dials until it succeeds and the handshake is written, or
	// the runtime begins stopping.
	connect := func() bool {
		backoff := rt.cfg.DialRetry
		for {
			c, err := rt.dial(addr)
			if err == nil {
				hb, herr := encodeFrame(rt.helloFrame())
				if herr == nil {
					_, werr := c.Write(*hb)
					releaseFrameBuf(hb)
					if werr == nil {
						conn = c
						st.connects.Add(1)
						// Connections are bidirectional: replies (e.g.
						// to clients, which do not listen) come back on
						// the dialed socket.
						go rt.readLoop(c, id, false)
						return true
					}
				}
				c.Close()
			}
			// Jittered exponential backoff: uniform in [b/2, b].
			wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			select {
			case <-rt.stopping:
				return false
			case <-d.stop:
				return false
			case <-time.After(wait):
			}
			if backoff *= 2; backoff > rt.cfg.DialRetryMax {
				backoff = rt.cfg.DialRetryMax
			}
		}
	}

	keepAlive := rt.cfg.KeepAlive
	if keepAlive <= 0 {
		keepAlive = time.Hour * 24 * 365
	}
	ping := time.NewTicker(keepAlive)
	defer ping.Stop()

	for {
		select {
		case <-d.stop:
			// The peer was removed from the configuration: retire the
			// lane immediately (queued frames to an evicted member are
			// not worth flushing).
			return
		case <-rt.stopping:
			// Drain: flush whatever is queued over the existing
			// connection (no redialing) within the drain budget.
			deadline := time.NewTimer(rt.cfg.DrainTimeout)
			defer deadline.Stop()
			for conn != nil {
				select {
				case f := <-ch:
					write(f)
				case <-deadline.C:
					return
				default:
					return
				}
			}
			return
		case <-ping.C:
			if conn != nil {
				write(&frame{From: rt.cfg.Self, Msg: &Ping{}})
			}
		case f := <-ch:
			if conn == nil && !connect() {
				return
			}
			write(f)
		}
	}
}

// --- protocol.Env -------------------------------------------------------

var _ protocol.Env = (*Runtime)(nil)

// Charge implements types.Meter; real operations consume real time, so
// modelled charges are ignored.
func (rt *Runtime) Charge(time.Duration) {}

// Now implements protocol.Env.
func (rt *Runtime) Now() types.Time { return time.Since(rt.start) }

// SetTraceContext installs the causal-tracing context stamped onto
// subsequent outbound frames. The replica calls it when it mints a new
// trace (proposing a height, submitting a client batch); inbound steps
// set and clear it around every handler automatically.
func (rt *Runtime) SetTraceContext(ctx types.TraceContext) { rt.traceCtx.Store(ctx.Pack()) }

// TraceContext returns the current outbound trace context — during an
// inbound consensus step, the context the triggering frame carried.
func (rt *Runtime) TraceContext() types.TraceContext {
	return types.UnpackTraceContext(rt.traceCtx.Load())
}

// Send implements protocol.Env.
func (rt *Runtime) Send(to types.NodeID, msg types.Message) {
	f := &frame{From: rt.cfg.Self, Msg: msg, Trace: rt.TraceContext()}
	rt.mu.Lock()
	addr, isPeer := rt.peers[to]
	rt.mu.Unlock()
	if isPeer && to != rt.cfg.Self {
		d := rt.ensureDialer(to, addr)
		select {
		case d.ch <- f:
		default:
			rt.noteSendDrop(to, msg)
		}
		return
	}
	// Reply route: a client that connected to us. The enqueue happens
	// under mu so the route cannot be closed between the check and the
	// send; it is non-blocking, so the lock is held O(1).
	rt.mu.Lock()
	r := rt.routes[to]
	queued, dropped := false, false
	if r != nil && r.ch != nil && !r.closed {
		select {
		case r.ch <- f:
			queued = true
		default:
			dropped = true
		}
	}
	rt.mu.Unlock()
	switch {
	case queued:
	case dropped:
		rt.noteSendDrop(to, msg)
	default:
		rt.logf("no route to %v for %s", to, msg.Type())
	}
}

// noteSendDrop counts a frame lost to a full outbound queue, logging
// at most once per second per peer (the logger reports how many lines
// were suppressed in between).
func (rt *Runtime) noteSendDrop(to types.NodeID, msg types.Message) {
	rt.statsFor(to).sendDrops.Add(1)
	rt.log.Limitf(obs.LevelWarn, fmt.Sprintf("queuefull:%v", to), time.Second,
		"send queue to %v full; dropping frames (last: %s)", to, msg.Type())
}

// Broadcast implements protocol.Env.
func (rt *Runtime) Broadcast(msg types.Message) {
	rt.mu.Lock()
	ids := make([]types.NodeID, 0, len(rt.peers))
	for id := range rt.peers {
		if id != rt.cfg.Self {
			ids = append(ids, id)
		}
	}
	rt.mu.Unlock()
	for _, id := range ids {
		rt.Send(id, msg)
	}
}

// --- dynamic reconfiguration ---------------------------------------------

// AddPeer installs (or re-addresses) a peer's dial address and starts
// its outbound lane. Safe from any goroutine; the live node calls it
// from core.Config.OnEpochChange when an epoch adds a member.
func (rt *Runtime) AddPeer(id types.NodeID, addr string) {
	if id == rt.cfg.Self || addr == "" {
		return
	}
	rt.mu.Lock()
	prev, had := rt.peers[id]
	rt.peers[id] = addr
	stopped := rt.stopped
	rt.mu.Unlock()
	if stopped {
		return
	}
	if had && prev != addr {
		// Re-addressed: retire the old lane so the next send redials.
		rt.RemovePeer(id)
		rt.mu.Lock()
		rt.peers[id] = addr
		rt.mu.Unlock()
	}
	rt.ensureDialer(id, addr)
	rt.logf("peer %v added at %s", id, addr)
}

// RemovePeer drops a peer live: its outbound lane is retired, its
// inbound route evicted, and future frames to it are unroutable. The
// node calls it when an epoch removes a member (the evicted node may
// still connect as a learner client, but holds no ring identity).
func (rt *Runtime) RemovePeer(id types.NodeID) {
	rt.mu.Lock()
	delete(rt.peers, id)
	d := rt.outbound[id]
	delete(rt.outbound, id)
	r := rt.routes[id]
	if r != nil {
		closeRouteLocked(r)
		delete(rt.routes, id)
	}
	rt.mu.Unlock()
	if d != nil {
		close(d.stop)
	}
	if r != nil {
		r.conn.Close()
	}
	rt.logf("peer %v removed", id)
}

// SetRing swaps the handshake-verification ring (key rotation). New
// connections authenticate against the new ring; established
// connections persist — their frames were authenticated at handshake
// time, and consensus-level signatures are judged by the replica under
// its own epoch ring regardless.
func (rt *Runtime) SetRing(ring *crypto.KeyRing) { rt.ring.Store(ring) }

// SetPriv swaps the key signing outbound handshakes (this node's own
// ring-key rotation). Established connections persist; dials after the
// swap present the new identity.
func (rt *Runtime) SetPriv(priv crypto.PrivateKey) {
	if priv == nil {
		return
	}
	rt.helloPriv.Store(&priv)
}

// SetEpoch updates the configuration epoch advertised (and enforced,
// see authenticateHello) on handshakes.
func (rt *Runtime) SetEpoch(epoch uint64, configHash types.Hash) {
	rt.configHash.Store(&configHash)
	rt.epoch.Store(epoch)
}

// PeerIDs returns the current peer table's identities (tests, status).
func (rt *Runtime) PeerIDs() []types.NodeID {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ids := make([]types.NodeID, 0, len(rt.peers))
	for id := range rt.peers {
		ids = append(ids, id)
	}
	return ids
}

// SetTimer implements protocol.Env.
func (rt *Runtime) SetTimer(d time.Duration, id types.TimerID) {
	time.AfterFunc(d, func() {
		select {
		case rt.events <- func() { rt.replica.OnTimer(id) }:
		case <-rt.done:
		}
	})
}

// Commit implements protocol.Env.
func (rt *Runtime) Commit(b *types.Block, cc *types.CommitCert) {
	if rt.cfg.OnCommit != nil {
		rt.cfg.OnCommit(b, cc)
	}
}

// Logf implements protocol.Env.
func (rt *Runtime) Logf(format string, args ...any) { rt.logf(format, args...) }
