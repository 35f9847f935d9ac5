package loadgen

import (
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// Config parameterizes a live open-loop generator.
type Config struct {
	// Peers maps consensus node identities to dial addresses; every
	// submission is broadcast to all of them (the BFT client pattern).
	Peers map[types.NodeID]string
	// Rate is the aggregate offered load in transactions per second.
	Rate float64
	// Sessions is the logical client-session population. Sessions are
	// multiplexed over the connection pool: session s submits through
	// connection s mod Conns, under that connection's client identity.
	Sessions int
	// Conns bounds the TCP connection pool — each entry is one
	// transport.Runtime with its own client identity, so ten thousand
	// sessions cost Conns×len(Peers) sockets, not 10000×len(Peers).
	// Zero defaults to 16.
	Conns int
	// Seed drives the Poisson arrival schedule.
	Seed int64
	// PayloadSize is the per-transaction payload in bytes.
	PayloadSize int
	// Timeout abandons a request unconfirmed after this long (counted
	// in Report.TimedOut). Zero defaults to 10 s.
	Timeout time.Duration
	// Tick bounds dispatch batching: arrivals due within one tick go
	// out as one ClientRequest per connection. Zero defaults to 5 ms.
	Tick time.Duration
	// ClientBase is the first client identity used by the pool; the
	// default leaves room below for interactive achilles-client runs.
	ClientBase types.NodeID
	// Dial overrides the dialer on every pool connection (netchaos WAN
	// profiles). nil uses the transport default.
	Dial func(network, addr string) (net.Conn, error)
	// Log receives transport diagnostics (may be nil).
	Log *obs.Logger
	// MaxLatencySamples caps the latency reservoir (default 1<<20).
	MaxLatencySamples int
	// Obs, when set, registers the generator's own metric series
	// (achilles_load_*) — what achilles-load's -admin-addr serves.
	Obs *obs.Registry
	// Spans, when set, samples submissions for causal tracing: a
	// sampled batch's trace context is stamped on its wire frames (so
	// the replica step that admits it runs under the client's trace ID) and
	// the client records an egress-reply span — submit to certified
	// reply, the reply leg as the client observes it — on confirmation.
	Spans *obs.SpanTracer
}

// Report is a generator run's outcome accounting.
type Report struct {
	Elapsed time.Duration `json:"elapsed"`
	// Offered counts submissions sent; Committed certified commits.
	Offered   uint64 `json:"offered"`
	Committed uint64 `json:"committed"`
	// RejectedFull / RejectedRate count RETRY-AFTER responses by
	// reason (one transaction may be refused by several nodes).
	RejectedFull uint64 `json:"rejected_full"`
	RejectedRate uint64 `json:"rejected_rate"`
	// Dropped counts transactions every node refused (admission drops).
	Dropped uint64 `json:"dropped"`
	// TimedOut counts requests abandoned after Config.Timeout.
	TimedOut uint64 `json:"timed_out"`
	// Outstanding is the in-flight count at snapshot time.
	Outstanding uint64 `json:"outstanding"`
	// SessionsSubmitted / SessionsCommitted count distinct logical
	// sessions that submitted at least one transaction / had at least
	// one commit confirmed.
	SessionsSubmitted int `json:"sessions_submitted"`
	SessionsCommitted int `json:"sessions_committed"`
	// OfferedTPS / CommittedTPS are rates over Elapsed.
	OfferedTPS   float64 `json:"offered_tps"`
	CommittedTPS float64 `json:"committed_tps"`
	// Latency summarizes confirmed end-to-end latency (up to
	// MaxLatencySamples samples).
	Latency obs.DurationSummary `json:"-"`
}

// String renders the report in one line.
func (r Report) String() string {
	return fmt.Sprintf(
		"offered=%d (%.0f/s) committed=%d (%.0f/s) rejected=%d/%d dropped=%d timeout=%d outstanding=%d sessions=%d/%d p50=%v p99=%v p999=%v",
		r.Offered, r.OfferedTPS, r.Committed, r.CommittedTPS,
		r.RejectedFull, r.RejectedRate, r.Dropped, r.TimedOut, r.Outstanding,
		r.SessionsCommitted, r.SessionsSubmitted,
		r.Latency.P50, r.Latency.P99, r.Latency.P999)
}

// pending tracks one in-flight request on a connection.
type pending struct {
	session int32
	rejMask uint64 // one bit per node that refused; full mask = dropped
	rateHit bool
	created time.Duration
	ctx     types.TraceContext // sampled batch's trace context (zero otherwise)
}

// conn is one pooled connection: a client-identity transport.Runtime
// plus the per-session request/response tracker for every session
// multiplexed onto it.
type conn struct {
	g  *Generator
	id types.NodeID
	rt *transport.Runtime

	mu       sync.Mutex
	seq      uint32
	reqs     map[uint32]*pending
	offered  uint64
	commits  uint64
	rejFull  uint64
	rejRate  uint64
	dropped  uint64
	timedOut uint64
	lats     []time.Duration
}

// Init implements protocol.Replica. The connection drives itself off
// the Runtime directly (Send/Now are safe from any goroutine), so the
// env is unused.
func (c *conn) Init(protocol.Env) {}

// OnTimer implements protocol.Replica.
func (c *conn) OnTimer(types.TimerID) {}

// OnMessage implements protocol.Replica: commit confirmations retire
// requests and record latency; RETRY-AFTER responses count admission
// drops once every node has refused (open-loop clients do not retry —
// a refused transaction is a drop, not a slower success).
func (c *conn) OnMessage(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *types.ClientReply:
		if !m.Certified {
			return
		}
		now := time.Duration(c.rt.Now())
		c.mu.Lock()
		for _, k := range m.TxKeys {
			if k.Client != c.id {
				continue
			}
			p, ok := c.reqs[k.Seq]
			if !ok {
				continue
			}
			delete(c.reqs, k.Seq)
			c.commits++
			if len(c.lats) < cap(c.lats) {
				c.lats = append(c.lats, now-p.created)
			}
			if p.ctx.Sampled {
				c.g.cfg.Spans.Observe(p.ctx, obs.StageEgress, uint64(m.View),
					uint64(m.Height), now-p.created, "client-confirm")
			}
			c.g.noteSessionCommit(int(p.session))
		}
		c.mu.Unlock()
	case *types.ClientRetry:
		// Track refusals per distinct node (one bit each): a node may
		// answer twice for the same transaction, and a transaction is a
		// drop only once every replica has refused it — any node that
		// admitted it can still commit.
		bit := uint64(1) << (uint64(from) & 63)
		c.mu.Lock()
		for _, k := range m.TxKeys {
			if k.Client != c.id {
				continue
			}
			p, ok := c.reqs[k.Seq]
			if !ok {
				continue
			}
			if m.Reason == types.RetryRateLimited {
				c.rejRate++
				p.rateHit = true
			} else {
				c.rejFull++
			}
			p.rejMask |= bit
			if bits.OnesCount64(p.rejMask) >= len(c.g.cfg.Peers) {
				delete(c.reqs, k.Seq)
				c.dropped++
			}
		}
		c.mu.Unlock()
	}
}

// submit sends one batched ClientRequest carrying a fresh transaction
// per session in the batch. Called from the dispatcher goroutine.
func (c *conn) submit(sessions []int32) {
	now := time.Duration(c.rt.Now())
	// One trace context per batch (zero when tracing is off): sampled
	// batches stamp it on the outbound frames so replica-side spans
	// correlate with this client's. The stamp window races only with
	// inbound-reply handling on the same runtime, which can at worst
	// strip the stamp from one frame — tolerable for sampled tracing.
	ctx := c.g.cfg.Spans.NewTrace()
	txs := make([]types.Transaction, len(sessions))
	c.mu.Lock()
	for i, s := range sessions {
		c.seq++
		txs[i] = types.Transaction{
			Client:  c.id,
			Seq:     c.seq,
			Payload: c.g.payload,
			Created: now,
		}
		c.reqs[c.seq] = &pending{session: s, created: now, ctx: ctx}
	}
	c.offered += uint64(len(txs))
	c.mu.Unlock()
	if ctx.ID != 0 {
		c.rt.SetTraceContext(ctx)
		defer c.rt.SetTraceContext(types.TraceContext{})
	}
	c.rt.Broadcast(&types.ClientRequest{Txs: txs})
}

// expire abandons requests older than the timeout.
func (c *conn) expire(now time.Duration, timeout time.Duration) {
	c.mu.Lock()
	for seq, p := range c.reqs {
		if now-p.created >= timeout {
			delete(c.reqs, seq)
			c.timedOut++
		}
	}
	c.mu.Unlock()
}

var _ protocol.Replica = (*conn)(nil)

// Generator drives an open-loop workload against a live cluster.
type Generator struct {
	cfg     Config
	sched   *Schedule
	payload []byte
	conns   []*conn
	start   time.Time

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	sessMu        sync.Mutex
	sessSubmitted []bool
	sessCommitted []bool
	nSubmitted    int
	nCommitted    int
}

// New builds a generator; Start begins offering load.
func New(cfg Config) *Generator {
	if cfg.Conns <= 0 {
		cfg.Conns = 16
	}
	if cfg.Sessions < 1 {
		cfg.Sessions = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Tick == 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	if cfg.ClientBase == 0 {
		cfg.ClientBase = types.ClientIDBase + 1<<16
	}
	if cfg.MaxLatencySamples <= 0 {
		cfg.MaxLatencySamples = 1 << 20
	}
	g := &Generator{
		cfg:           cfg,
		sched:         NewSchedule(cfg.Seed, cfg.Rate, cfg.Sessions),
		payload:       make([]byte, cfg.PayloadSize),
		stop:          make(chan struct{}),
		sessSubmitted: make([]bool, cfg.Sessions),
		sessCommitted: make([]bool, cfg.Sessions),
	}
	for i := range g.payload {
		g.payload[i] = byte(i * 11)
	}
	return g
}

// Start connects the pool and begins dispatching arrivals.
func (g *Generator) Start() error {
	perConn := g.cfg.MaxLatencySamples / g.cfg.Conns
	if perConn < 1024 {
		perConn = 1024
	}
	for i := 0; i < g.cfg.Conns; i++ {
		c := &conn{
			g:    g,
			id:   g.cfg.ClientBase + types.NodeID(i),
			reqs: make(map[uint32]*pending),
			lats: make([]time.Duration, 0, perConn),
		}
		c.rt = transport.New(transport.Config{
			Self:  c.id,
			Peers: g.cfg.Peers,
			Dial:  g.cfg.Dial,
			Log:   g.cfg.Log,
		}, c)
		if err := c.rt.Start(); err != nil {
			for _, prev := range g.conns {
				prev.rt.Stop()
			}
			return err
		}
		g.conns = append(g.conns, c)
	}
	g.start = time.Now()
	g.register(g.cfg.Obs)
	g.wg.Add(2)
	go g.dispatch()
	go g.reap()
	return nil
}

// register installs the generator's metric collectors. One collector
// per family; each scrape takes one pass over the connection pool.
func (g *Generator) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("achilles_load_txs_total",
		"Generator transaction outcomes.", obs.KindCounter, func() []obs.Sample {
			offered, commits, rejFull, rejRate, dropped, timedOut, _ := g.counters()
			return []obs.Sample{
				{Labels: []obs.Label{obs.L("result", "offered")}, Value: float64(offered)},
				{Labels: []obs.Label{obs.L("result", "committed")}, Value: float64(commits)},
				{Labels: []obs.Label{obs.L("result", "rejected_full")}, Value: float64(rejFull)},
				{Labels: []obs.Label{obs.L("result", "rejected_rate")}, Value: float64(rejRate)},
				{Labels: []obs.Label{obs.L("result", "dropped")}, Value: float64(dropped)},
				{Labels: []obs.Label{obs.L("result", "timed_out")}, Value: float64(timedOut)},
			}
		})
	reg.Func("achilles_load_outstanding",
		"Requests in flight (submitted, not yet confirmed or abandoned).",
		obs.KindGauge, func() []obs.Sample {
			_, _, _, _, _, _, outstanding := g.counters()
			return []obs.Sample{{Value: float64(outstanding)}}
		})
	reg.Func("achilles_load_sessions",
		"Distinct logical sessions that submitted / had a commit confirmed.",
		obs.KindGauge, func() []obs.Sample {
			g.sessMu.Lock()
			sub, com := g.nSubmitted, g.nCommitted
			g.sessMu.Unlock()
			return []obs.Sample{
				{Labels: []obs.Label{obs.L("state", "submitted")}, Value: float64(sub)},
				{Labels: []obs.Label{obs.L("state", "committed")}, Value: float64(com)},
			}
		})
}

// counters sums the per-connection accounting without copying latency
// reservoirs (Report does that; scrapes should stay cheap).
func (g *Generator) counters() (offered, commits, rejFull, rejRate, dropped, timedOut, outstanding uint64) {
	for _, c := range g.conns {
		c.mu.Lock()
		offered += c.offered
		commits += c.commits
		rejFull += c.rejFull
		rejRate += c.rejRate
		dropped += c.dropped
		timedOut += c.timedOut
		outstanding += uint64(len(c.reqs))
		c.mu.Unlock()
	}
	return
}

// dispatch walks the arrival schedule in real time, batching arrivals
// due within one tick into one ClientRequest per connection.
func (g *Generator) dispatch() {
	defer g.wg.Done()
	batches := make([][]int32, len(g.conns))
	var due []Arrival
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		now := types.Time(time.Since(g.start))
		due = g.sched.TakeUntil(due[:0], now)
		if len(due) > 0 {
			g.sessMu.Lock()
			for _, a := range due {
				if !g.sessSubmitted[a.Session] {
					g.sessSubmitted[a.Session] = true
					g.nSubmitted++
				}
				ci := a.Session % len(g.conns)
				batches[ci] = append(batches[ci], int32(a.Session))
			}
			g.sessMu.Unlock()
			for ci, sessions := range batches {
				if len(sessions) == 0 {
					continue
				}
				g.conns[ci].submit(sessions)
				batches[ci] = batches[ci][:0]
			}
		}
		sleep := g.cfg.Tick
		select {
		case <-g.stop:
			return
		case <-time.After(sleep):
		}
	}
}

// reap periodically expires timed-out requests.
func (g *Generator) reap() {
	defer g.wg.Done()
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			now := time.Since(g.start)
			for _, c := range g.conns {
				c.expire(now, g.cfg.Timeout)
			}
		}
	}
}

func (g *Generator) noteSessionCommit(session int) {
	g.sessMu.Lock()
	if session >= 0 && session < len(g.sessCommitted) && !g.sessCommitted[session] {
		g.sessCommitted[session] = true
		g.nCommitted++
	}
	g.sessMu.Unlock()
}

// Stop ceases dispatching and tears the connection pool down.
func (g *Generator) Stop() {
	g.once.Do(func() { close(g.stop) })
	g.wg.Wait()
	for _, c := range g.conns {
		c.rt.Stop()
	}
}

// Report snapshots the run's accounting. Safe while running.
func (g *Generator) Report() Report {
	r := Report{Elapsed: time.Since(g.start)}
	var lats []time.Duration
	for _, c := range g.conns {
		c.mu.Lock()
		r.Offered += c.offered
		r.Committed += c.commits
		r.RejectedFull += c.rejFull
		r.RejectedRate += c.rejRate
		r.Dropped += c.dropped
		r.TimedOut += c.timedOut
		r.Outstanding += uint64(len(c.reqs))
		lats = append(lats, c.lats...)
		c.mu.Unlock()
	}
	g.sessMu.Lock()
	r.SessionsSubmitted = g.nSubmitted
	r.SessionsCommitted = g.nCommitted
	g.sessMu.Unlock()
	if s := r.Elapsed.Seconds(); s > 0 {
		r.OfferedTPS = float64(r.Offered) / s
		r.CommittedTPS = float64(r.Committed) / s
	}
	r.Latency = obs.SummarizeDurations(lats)
	return r
}
