package main

import (
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/loadgen"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// The load driver: at most two client connections, each a
// client-identity transport.Runtime that broadcasts every request to all
// nodes and accepts the first certified reply (the BFT client pattern).
// Open-loop workloads are dispatched by one goroutine walking a seeded
// Poisson schedule; the closed-loop workload refills its window from the
// reply handler, so it needs none.
const (
	maxConns = 2
	// requestTimeout abandons a request with no certified reply; it
	// then counts as failed.
	requestTimeout = 5 * time.Second
	clientBase     = types.ClientIDBase + 1<<16
)

// Request states.
const (
	stNone byte = iota
	stPending
	stAcked
	stTimedOut
	stRefused
)

// request is the record of one request. Times are ns since the
// driver's epoch.
type request struct {
	due     int64 // when it was due (open loop) or sent (closed loop)
	sent    int64
	acked   int64 // 0 until a certified reply arrives
	state   byte
	refused uint8 // bit per node that answered RETRY-AFTER
}

// clientConn is one client connection and the record of every request
// sent on it, indexed by sequence number.
type clientConn struct {
	d  *driver
	id types.NodeID
	rt *transport.Runtime

	mu     sync.Mutex
	reqs   []request
	oldest uint32 // no pending request has a lower sequence number
}

// pendingReq returns the record a reply's key names, if it is this
// connection's and still unanswered. The caller holds mu.
func (c *clientConn) pendingReq(k types.TxKey) *request {
	if k.Client != c.id || int(k.Seq) >= len(c.reqs) || c.reqs[k.Seq].state != stPending {
		return nil
	}
	return &c.reqs[k.Seq]
}

// Init implements protocol.Replica; the connection drives itself off
// the runtime, so the env is unused.
func (c *clientConn) Init(protocol.Env) {}

// OnTimer implements protocol.Replica.
func (c *clientConn) OnTimer(types.TimerID) {}

// OnMessage implements protocol.Replica. It runs on the client
// runtime's event loop.
func (c *clientConn) OnMessage(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *types.ClientReply:
		if !m.Certified {
			return
		}
		now := c.d.now()
		confirmed := 0
		c.mu.Lock()
		for _, k := range m.TxKeys {
			if r := c.pendingReq(k); r != nil {
				r.state, r.acked = stAcked, now
				confirmed++
			}
		}
		c.mu.Unlock()
		if confirmed > 0 && c.d.window.Load() > 0 && !c.d.paused.Load() {
			c.submit(confirmed, nil)
		}
	case *types.ClientRetry:
		c.mu.Lock()
		for _, k := range m.TxKeys {
			if r := c.pendingReq(k); r != nil {
				r.refused |= 1 << (uint(from) & 7)
				if bits.OnesCount8(r.refused) >= nNodes {
					r.state = stRefused
				}
			}
		}
		c.mu.Unlock()
	}
}

// submit sends one ClientRequest of n fresh transactions, due at dues,
// or now when dues is nil (closed loop and probes, which have no
// schedule).
func (c *clientConn) submit(n int, dues []int64) {
	now := c.d.now()
	txs := make([]types.Transaction, n)
	c.mu.Lock()
	for i := range txs {
		due := now
		if dues != nil {
			due = dues[i]
		}
		txs[i] = types.Transaction{Client: c.id, Seq: uint32(len(c.reqs)), Payload: c.d.payload, Created: time.Duration(due)}
		c.reqs = append(c.reqs, request{due: due, sent: now, state: stPending})
	}
	c.mu.Unlock()
	c.rt.Broadcast(&types.ClientRequest{Txs: txs})
}

// fill sends n requests stamped now, one block's worth per frame.
func (c *clientConn) fill(n int) {
	for ; n > 0; n -= batchSize {
		c.submit(min(batchSize, n), nil)
	}
}

// expire marks requests pending for longer than the timeout.
func (c *clientConn) expire(now int64) {
	c.mu.Lock()
	for int(c.oldest) < len(c.reqs) {
		r := &c.reqs[c.oldest]
		if r.state == stPending {
			if now-r.sent < int64(requestTimeout) {
				break
			}
			r.state = stTimedOut
		}
		c.oldest++
	}
	c.mu.Unlock()
}

func (c *clientConn) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.reqs[c.oldest:] {
		if r.state == stPending {
			n++
		}
	}
	return n
}

type driver struct {
	epoch   time.Time
	payload []byte
	conns   []*clientConn
	// paused holds back new requests: open-loop arrivals stay in the
	// schedule and go out late, the closed loop stops refilling.
	paused atomic.Bool
	// window is the closed loop's outstanding requests per connection;
	// 0 for an open loop.
	window   atomic.Int64
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

// newDriver connects the client runtimes to the cluster. dial is the
// netchaos dialer on the WAN workload, nil otherwise.
func newDriver(peers map[types.NodeID]string, dial func(network, addr string) (net.Conn, error)) (*driver, error) {
	d := &driver{epoch: time.Now(), payload: make([]byte, payloadSize), quit: make(chan struct{})}
	for i := range d.payload {
		d.payload[i] = byte(i * 11)
	}
	for i := 0; i < maxConns; i++ {
		c := &clientConn{d: d, id: clientBase + types.NodeID(i)}
		// Sequence number 0 is never used, so a zero TxKey is never valid.
		c.reqs, c.oldest = []request{{state: stNone}}, 1
		c.rt = transport.New(transport.Config{
			Self: c.id, Peers: peers, Dial: dial,
			DialRetry: dialRetry, DialRetryMax: dialRetryMax,
		}, c)
		if err := c.rt.Start(); err != nil {
			d.close()
			return nil, fmt.Errorf("start client %v: %w", c.id, err)
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

// probe sends one request on the first connection and waits for its
// certified reply: the cluster's first commit.
func (d *driver) probe() error {
	c := d.conns[0]
	c.submit(1, nil)
	d.waitOutstanding(0, requestTimeout+time.Second)
	c.mu.Lock()
	last := c.reqs[len(c.reqs)-1]
	c.mu.Unlock()
	if last.state != stAcked {
		return fmt.Errorf("no certified commit within %v of starting the cluster", requestTimeout)
	}
	return nil
}

// newSchedule is the open loop's arrival process: seeded Poisson
// arrivals at rate tx/s, each assigned to one of the connections.
func newSchedule(seed int64, rate float64) *loadgen.Schedule {
	return loadgen.NewSchedule(seed, rate, maxConns)
}

// startOpenLoop dispatches a Poisson schedule at rate tx/s, batching
// the arrivals due within one tick into one request per connection and
// stamping each with the time it was due.
func (d *driver) startOpenLoop(seed int64, rate float64, tick time.Duration) {
	sched := newSchedule(seed, rate)
	t0 := d.now()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		var arrivals []loadgen.Arrival
		dues := make([][]int64, len(d.conns))
		timer := time.NewTimer(tick)
		defer timer.Stop()
		for {
			now := d.now()
			if !d.paused.Load() {
				arrivals = sched.TakeUntil(arrivals[:0], time.Duration(now-t0))
				for _, a := range arrivals {
					dues[a.Session] = append(dues[a.Session], t0+int64(a.At))
				}
			}
			for i, c := range d.conns {
				if len(dues[i]) > 0 {
					c.submit(len(dues[i]), dues[i])
					dues[i] = dues[i][:0]
				}
			}
			timer.Reset(tick)
			select {
			case <-d.quit:
				return
			case <-timer.C:
			}
		}
	}()
}

// startClosedLoop fills every connection's window; the reply handler
// keeps it full from then on.
func (d *driver) startClosedLoop(window int) {
	d.window.Store(int64(window))
	for _, c := range d.conns {
		c.fill(window)
	}
}

// backlogLimit is how many requests an open loop may have outstanding
// and still count as keeping up: a few times what the offered rates of
// the workloads hold in flight at their steady latency.
const backlogLimit = 256

// waitOutstanding waits until at most limit requests are unanswered,
// expiring those that time out meanwhile, or until the timeout passes.
func (d *driver) waitOutstanding(limit int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		now, outstanding := d.now(), 0
		for _, c := range d.conns {
			c.expire(now)
			outstanding += c.pending()
		}
		if outstanding <= limit || time.Now().After(deadline) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// drainBacklog waits, with the open loop still running, until the
// cluster has caught up with it. A closed loop has no backlog.
func (d *driver) drainBacklog(timeout time.Duration) {
	if d.window.Load() == 0 {
		d.waitOutstanding(backlogLimit, timeout)
	}
}

// quiesce holds back new requests and waits until none is outstanding,
// so that no proposal is in flight; resume lets requests flow again.
func (d *driver) quiesce(timeout time.Duration) {
	d.paused.Store(true)
	d.waitOutstanding(0, timeout)
}

func (d *driver) resume() { d.paused.Store(false) }

// stopLoad stops offering requests and waits until every request sent
// has been answered or has timed out.
func (d *driver) stopLoad() {
	d.stopOnce.Do(func() {
		d.paused.Store(true)
		close(d.quit)
		d.wg.Wait()
		d.waitOutstanding(0, requestTimeout+time.Second)
	})
}

func (d *driver) close() {
	d.stopLoad()
	for _, c := range d.conns {
		c.rt.Stop()
	}
}
