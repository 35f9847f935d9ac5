// Package mempool buffers client transactions and assembles the
// fixed-size batches (blocks' tx lists) the paper's experiments use.
//
// Two sources feed a pool: real client requests (deduplicated by
// (client, seq)) and an optional synthetic generator that models a
// saturated system — the setting under which the paper measures
// throughput and commit latency (Sec. 5.1).
//
// A pool may additionally enforce admission control (admission.go):
// bounded depth and per-client token buckets with reject-not-block
// semantics, so that overload surfaces to clients as explicit
// RETRY-AFTER backpressure rather than unbounded queues. A separate
// priority lane carries consensus-critical transactions (requeued
// in-flight proposals) past admission and ahead of ordinary client
// traffic.
package mempool

import (
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/types"
)

// Stats is a point-in-time snapshot of a pool's admission counters.
type Stats struct {
	// Depth is the number of queued client transactions right now
	// (ordinary queue plus priority lane).
	Depth int
	// Accepted counts client transactions admitted to the queue.
	Accepted uint64
	// Duplicates counts client transactions rejected as already
	// pending or already committed.
	Duplicates uint64
	// Synthetic counts generated transactions handed out in batches.
	Synthetic uint64
	// CommittedTxs counts client transactions marked committed.
	CommittedTxs uint64
	// StagedDepth is the number of transactions sitting in the staging
	// buffer (admitted off-loop, not yet drained onto the queue).
	StagedDepth int
	// Staged counts transactions ever placed in the staging buffer.
	Staged uint64
	// RejectedFull counts transactions refused because the pool was at
	// its configured depth bound.
	RejectedFull uint64
	// RejectedRate counts transactions refused by a per-client token
	// bucket.
	RejectedRate uint64
	// Requeued counts transactions re-admitted through the priority
	// lane after a failed proposal.
	Requeued uint64
	// PrioDepth is the number of transactions waiting in the priority
	// lane right now.
	PrioDepth int
}

// Pool is a per-node transaction pool. The queue and dedup maps are
// not safe for concurrent use — Add, Len, NextBatch, MarkCommitted,
// Requeue and DrainStaged must stay on the consensus goroutine. Stage
// is the one concurrent entry point: callers park transactions in a
// mutex-guarded staging buffer, and the consensus goroutine admits
// them in one batch via DrainStaged. The admission counters are
// atomics so metric scrapers may call Stats from other goroutines.
type Pool struct {
	queue   []types.Transaction
	prio    []types.Transaction
	pending map[types.TxKey]bool
	done    map[types.TxKey]bool

	// queue-wait observation (SetWaitObserver): queueAt mirrors queue
	// with each entry's wall-clock enqueue time. Maintained only while
	// an observer is installed, so the untraced path never calls
	// time.Now (and the simulator's deterministic replay is untouched —
	// the observed values feed metrics, never behavior).
	waitObs func(d time.Duration)
	queueAt []time.Time

	// staging buffer: written by ingress workers, drained on the
	// consensus goroutine.
	stagedMu sync.Mutex
	staged   []types.Transaction

	// admission limiter; nil when admission control is disabled. admMu
	// serializes limiter access between Stage (any goroutine) and Add
	// (consensus goroutine).
	admMu sync.Mutex
	adm   *admission

	// synthetic configuration
	synthetic   bool
	payloadSize int
	self        types.NodeID
	nextSeq     uint32
	payload     []byte

	depth        atomic.Int64
	prioDepth    atomic.Int64
	stagedDepth  atomic.Int64
	stagedTotal  atomic.Uint64
	accepted     atomic.Uint64
	duplicates   atomic.Uint64
	genSynthetic atomic.Uint64
	committedTxs atomic.Uint64
	rejectedFull atomic.Uint64
	rejectedRate atomic.Uint64
	requeued     atomic.Uint64
}

// New returns an empty pool fed only by client requests.
func New() *Pool {
	return &Pool{pending: make(map[types.TxKey]bool), done: make(map[types.TxKey]bool)}
}

// NewSynthetic returns a pool that can always fill a batch with
// generated transactions of the given payload size, attributed to a
// per-node pseudo client. It models the saturated closed-loop workload
// used for the throughput figures.
func NewSynthetic(self types.NodeID, payloadSize int) *Pool {
	p := New()
	p.synthetic = true
	p.payloadSize = payloadSize
	p.self = self
	p.payload = make([]byte, payloadSize)
	for i := range p.payload {
		p.payload[i] = byte(i)
	}
	return p
}

// SetAdmission installs (or, with a zero config, removes) admission
// control. Call before traffic flows; the limiter itself is safe for
// concurrent use afterwards.
func (p *Pool) SetAdmission(cfg AdmissionConfig) {
	p.admMu.Lock()
	defer p.admMu.Unlock()
	if !cfg.Enabled() {
		p.adm = nil
		return
	}
	p.adm = newAdmission(cfg)
}

// SetWaitObserver installs a hook that receives, per assembled batch,
// the queue wait of the oldest client transaction drawn (the
// mempool-wait trace stage: the head-of-line wait bounds every other
// transaction's). Call before traffic flows, from the goroutine that
// owns the queue; nil removes the observer.
func (p *Pool) SetWaitObserver(fn func(d time.Duration)) {
	p.waitObs = fn
	p.queueAt = nil
}

// admit runs txs through the limiter against the current total depth
// (queue + staging). Returns the admitted subset and the outcome tally.
func (p *Pool) admit(txs []types.Transaction, now types.Time) ([]types.Transaction, AdmitResult) {
	p.admMu.Lock()
	defer p.admMu.Unlock()
	if p.adm == nil {
		return txs, AdmitResult{Admitted: len(txs)}
	}
	depth := int(p.depth.Load()) + int(p.stagedDepth.Load())
	admitted, res := p.adm.filter(txs, depth, now)
	p.rejectedFull.Add(uint64(len(res.RejectedFull)))
	p.rejectedRate.Add(uint64(len(res.RejectedRate)))
	return admitted, res
}

// Add enqueues client transactions, dropping duplicates and
// transactions that already committed, and applying admission control
// when configured. now feeds the token buckets; pass the runtime clock
// (virtual time under the simulator) so decisions replay
// deterministically.
func (p *Pool) Add(txs []types.Transaction, now types.Time) AdmitResult {
	admitted, res := p.admit(txs, now)
	dups := p.enqueue(admitted)
	res.Admitted -= dups
	res.Duplicates = dups
	return res
}

// enqueue appends transactions to the ordinary queue with
// deduplication. Consensus goroutine only. Returns the duplicate count.
func (p *Pool) enqueue(txs []types.Transaction) int {
	dups := 0
	for _, tx := range txs {
		k := tx.Key()
		if p.pending[k] || p.done[k] {
			p.duplicates.Add(1)
			dups++
			continue
		}
		p.pending[k] = true
		p.queue = append(p.queue, tx)
		if p.waitObs != nil {
			p.queueAt = append(p.queueAt, time.Now())
		}
		p.accepted.Add(1)
	}
	p.depth.Store(int64(len(p.queue) + len(p.prio)))
	return dups
}

// Stage parks client transactions for later batched admission. Safe
// for concurrent use. Admission control applies here (the staging
// buffer counts toward MaxDepth). Duplicates are not filtered here;
// DrainStaged inserts staged transactions with dedup as always. The
// replica admits through Add; Stage/DrainStaged remain only because
// benchmark/layers.go times them.
func (p *Pool) Stage(txs []types.Transaction, now types.Time) AdmitResult {
	if len(txs) == 0 {
		return AdmitResult{}
	}
	admitted, res := p.admit(txs, now)
	if len(admitted) == 0 {
		return res
	}
	p.stagedMu.Lock()
	p.staged = append(p.staged, admitted...)
	depth := len(p.staged)
	p.stagedMu.Unlock()
	p.stagedDepth.Store(int64(depth))
	p.stagedTotal.Add(uint64(len(admitted)))
	return res
}

// DrainStaged moves everything in the staging buffer onto the queue
// (with dedup) and returns how many transactions were staged
// (pre-dedup). Must be called from the consensus goroutine, like Add.
// Staged transactions already passed admission, so they are not charged
// a second time.
func (p *Pool) DrainStaged() int {
	p.stagedMu.Lock()
	txs := p.staged
	p.staged = nil
	p.stagedMu.Unlock()
	p.stagedDepth.Store(0)
	if len(txs) == 0 {
		return 0
	}
	p.enqueue(txs)
	return len(txs)
}

// Requeue re-admits transactions from a proposal that failed to commit
// (view change fired before the block was ordered) through the
// priority lane: ahead of ordinary client traffic and exempt from
// admission, because these transactions were already admitted once and
// dropping them now would turn backpressure into loss. Synthetic and
// already-committed transactions are skipped. Consensus goroutine only.
func (p *Pool) Requeue(txs []types.Transaction) {
	for i := range txs {
		if txs[i].Client.IsSynthetic() {
			continue
		}
		if p.done[txs[i].Key()] {
			continue
		}
		p.prio = append(p.prio, txs[i])
		p.requeued.Add(1)
	}
	p.prioDepth.Store(int64(len(p.prio)))
	p.depth.Store(int64(len(p.queue) + len(p.prio)))
}

// Len returns the number of queued client transactions (an upper
// bound: entries that committed elsewhere are dropped lazily when a
// batch is assembled).
func (p *Pool) Len() int { return len(p.queue) + len(p.prio) }

// NextBatch returns up to n transactions for a new block, draining the
// priority lane first, then queued client transactions, topping up
// from the synthetic generator when enabled. Transactions are NOT
// removed until MarkCommitted is called, but repeated NextBatch calls
// return fresh synthetic transactions so pipelined proposers do not
// duplicate. Client transactions returned here are removed from the
// queue; if the block fails to commit they will be retransmitted by
// the client (or requeued by the proposer via Requeue).
func (p *Pool) NextBatch(n int, now types.Time) []types.Transaction {
	batch := make([]types.Transaction, 0, n)
	// Drain the priority lane first: requeued proposal remnants must
	// reach a block before fresh client traffic.
	for len(batch) < n && len(p.prio) > 0 {
		tx := p.prio[0]
		p.prio = p.prio[1:]
		if p.done[tx.Key()] {
			delete(p.pending, tx.Key())
			continue
		}
		batch = append(batch, tx)
	}
	// Pop client transactions, skipping any that committed since they
	// were queued: with rotating leaders every node holds every
	// broadcast transaction, and without this check leaders would
	// re-propose work that other leaders already ordered.
	waited := false
	for len(batch) < n && len(p.queue) > 0 {
		tx := p.queue[0]
		p.queue = p.queue[1:]
		var at time.Time
		if len(p.queueAt) > 0 {
			at = p.queueAt[0]
			p.queueAt = p.queueAt[1:]
		}
		if p.done[tx.Key()] {
			delete(p.pending, tx.Key())
			continue
		}
		batch = append(batch, tx)
		if p.waitObs != nil && !waited && !at.IsZero() {
			p.waitObs(time.Since(at))
			waited = true
		}
	}
	if p.synthetic {
		for len(batch) < n {
			p.nextSeq++
			p.genSynthetic.Add(1)
			batch = append(batch, types.Transaction{
				Client:  p.self + types.SyntheticIDBase,
				Seq:     p.nextSeq,
				Payload: p.payload,
				Created: now,
			})
		}
	}
	p.prioDepth.Store(int64(len(p.prio)))
	p.depth.Store(int64(len(p.queue) + len(p.prio)))
	return batch
}

// MarkCommitted records committed transactions so later duplicates are
// ignored. Synthetic transactions are never retransmitted, so they are
// not tracked (keeping memory bounded in long simulations).
func (p *Pool) MarkCommitted(txs []types.Transaction) {
	for i := range txs {
		if txs[i].Client.IsSynthetic() {
			continue
		}
		k := txs[i].Key()
		delete(p.pending, k)
		p.done[k] = true
		p.committedTxs.Add(1)
	}
}

// Stats returns the pool's admission counters. Safe to call from any
// goroutine.
func (p *Pool) Stats() Stats {
	return Stats{
		Depth:        int(p.depth.Load()),
		Accepted:     p.accepted.Load(),
		Duplicates:   p.duplicates.Load(),
		Synthetic:    p.genSynthetic.Load(),
		CommittedTxs: p.committedTxs.Load(),
		StagedDepth:  int(p.stagedDepth.Load()),
		Staged:       p.stagedTotal.Load(),
		RejectedFull: p.rejectedFull.Load(),
		RejectedRate: p.rejectedRate.Load(),
		Requeued:     p.requeued.Load(),
		PrioDepth:    int(p.prioDepth.Load()),
	}
}
