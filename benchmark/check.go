package main

import (
	"fmt"
	"time"

	"achilles/internal/types"
)

// recovery is the outcome of one kill/reboot cycle of node 2.
type recovery struct {
	seconds    float64
	violations []string
}

// crashCycle kills node 2, holds it down, reboots it in recovery mode
// and waits for its first own commit at the cluster tip. The clock
// starts before the data directory is reopened, so WAL replay counts,
// and runs through transport.Runtime.Start, Algorithm 3 and catch-up.
func (c *cluster) crashCycle(d *driver, down time.Duration) (recovery, error) {
	var rec recovery
	nd := c.nodes[victim]
	// Kill only once nothing is in flight. A leader that dies with its
	// proposal still uncommitted gets that block committed later as the
	// ancestor of the next leader's block, which drew the same
	// transactions from its own pool: the requests commit twice. That is
	// a defect of the system, not of the benchmark; the workload steps
	// around it so that the run measures recovery.
	d.drainBacklog(10 * time.Second)
	d.quiesce(2 * time.Second)
	c.awaitLeaderZero(2 * time.Second)
	loggedTip := types.Height(nd.log.tip.Load())
	c.kill(nd)
	d.resume()
	time.Sleep(down)

	select {
	case <-c.caughtUp:
	default:
	}
	c.awaiting.Store(true)
	t0 := c.now()
	if err := c.boot(nd, true); err != nil {
		return rec, err
	}
	if nd.durable != nil {
		rec.violations = c.checkRestored(nd, loggedTip)
	}
	select {
	case at := <-c.caughtUp:
		rec.seconds = float64(at-t0) / 1e9
		return rec, nil
	case <-time.After(30 * time.Second):
		c.awaiting.Store(false)
		return rec, fmt.Errorf("node %v did not reach the cluster tip within 30 s of rebooting", nd.id)
	}
}

// awaitLeaderZero waits until node 0 enters a view it leads (an idle
// cluster rotates views every 500 ms), so that every outage starts at
// the same point of the leader rotation: two commits, then node 2's
// turn and the survivors' first stall. Over the WAN links a commit takes
// 100 ms, and an outage starting zero, one or two commits before the
// first stall moved the reboot far enough within a stall to spread
// recovery_s over 0.3 s.
func (c *cluster) awaitLeaderZero(timeout time.Duration) {
	rep := c.nodes[0].rep
	last := rep.Status().View
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := rep.Status().View
		if v != last && leaderOf(types.View(v)) == 0 {
			return
		}
		last = v
		time.Sleep(time.Millisecond)
	}
}

// checkRestored holds a reopened data directory to the durability
// contract of fsync=always: what the node reported committed before the
// crash is still there, and the restored tip is a block the survivors
// committed at that height. One block of slack: a replica reports a
// commit (and replies to clients) before it appends the block to its
// WAL, so a crash between the two loses that one block locally; f+1
// nodes hold it, which is the guarantee the protocol gives.
func (c *cluster) checkRestored(nd *node, loggedTip types.Height) []string {
	var out []string
	h, hash := nd.durable.Recovered().Tip()
	if h+1 < loggedTip {
		out = append(out, fmt.Sprintf("node %v committed height %d before the crash but its data directory restores only %d", nd.id, loggedTip, h))
	}
	if h == 0 {
		return out
	}
	agreed := false
	for _, s := range c.nodes {
		if s.id == nd.id {
			continue
		}
		s.log.mu.Lock()
		if uint64(h) < uint64(len(s.log.hashes)) && !s.log.hashes[h].IsZero() {
			if s.log.hashes[h] != hash {
				out = append(out, fmt.Sprintf("node %v restored a block at height %d that node %v did not commit", nd.id, h, s.id))
			}
			agreed = true
		}
		s.log.mu.Unlock()
	}
	if !agreed {
		out = append(out, fmt.Sprintf("node %v restored height %d, which no survivor has committed", nd.id, h))
	}
	return out
}

// settle waits until every node has committed the highest height any
// node has, or the timeout passes.
func (c *cluster) settle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		lo, hi := ^uint64(0), uint64(0)
		for _, nd := range c.nodes {
			t := nd.log.tip.Load()
			lo, hi = min(lo, t), max(hi, t)
		}
		if lo == hi {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// check is the end-of-run correctness checker. It reads the nodes'
// commit logs and the clients' request records after both have stopped.
func check(c *cluster, d *driver) []string {
	logs := make([]*commitLog, len(c.nodes))
	for i, nd := range c.nodes {
		logs[i] = nd.log
	}
	acked := make(map[types.NodeID][]uint32, len(d.conns))
	for _, cc := range d.conns {
		for s, r := range cc.reqs {
			if r.state == stAcked {
				acked[cc.id] = append(acked[cc.id], uint32(s))
			}
		}
	}
	return checkLogs(logs, acked)
}

// maxReported bounds how many violations of one kind are spelled out.
const maxReported = 5

// violations collects what the checker finds, spelling out the first
// maxReported of each kind and counting the rest.
type violations struct {
	out   []string
	kinds []string
	count map[string]int
}

func (v *violations) add(kind, format string, args ...any) {
	if v.count == nil {
		v.count = make(map[string]int)
	}
	if v.count[kind] == 0 {
		v.kinds = append(v.kinds, kind)
	}
	v.count[kind]++
	if v.count[kind] <= maxReported {
		v.out = append(v.out, kind+": "+fmt.Sprintf(format, args...))
	}
}

func (v *violations) list() []string {
	out := v.out
	for _, kind := range v.kinds {
		if n := v.count[kind]; n > maxReported {
			out = append(out, fmt.Sprintf("... and %d more %s violations", n-maxReported, kind))
		}
	}
	return out
}

// checkLogs verifies, over the commit logs of all nodes:
//   - agreement: no two nodes (or two incarnations of one node)
//     committed different blocks at a height;
//   - no acknowledged request lost: every (client, seq) a client holds
//     a certified reply for is in the committed chain of at least f+1
//     nodes;
//   - no request committed twice on any node.
func checkLogs(logs []*commitLog, acked map[types.NodeID][]uint32) []string {
	var v violations
	for i, l := range logs {
		for _, h := range l.forks {
			v.add("agreement", "two incarnations of node %d committed different blocks at height %d", i, h)
		}
		for j := i + 1; j < len(logs); j++ {
			m := logs[j]
			for h := 0; h < min(len(l.hashes), len(m.hashes)); h++ {
				if !l.hashes[h].IsZero() && !m.hashes[h].IsZero() && l.hashes[h] != m.hashes[h] {
					v.add("agreement", "nodes %d and %d committed different blocks at height %d", i, j, h)
				}
			}
		}
	}
	for client, seqs := range acked {
		for _, s := range seqs {
			holders := 0
			for _, l := range logs {
				if counts := l.seen[client]; int(s) < len(counts) && counts[s] > 0 {
					holders++
				}
			}
			if holders < fFaults+1 {
				v.add("lost acknowledgement", "request (%v, %d) has a certified reply but is committed on %d nodes, fewer than f+1", client, s, holders)
			}
		}
	}
	for i, l := range logs {
		for client, counts := range l.seen {
			for s, n := range counts {
				if n > 1 {
					v.add("duplicate commit", "node %d committed request (%v, %d) %d times", i, client, s, n)
				}
			}
		}
	}
	return v.list()
}
