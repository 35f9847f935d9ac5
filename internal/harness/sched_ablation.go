package harness

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/netchaos"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// SchedAblationRow is one pipeline depth's measured saturated
// throughput on a live loopback TCP cluster.
type SchedAblationRow struct {
	Depth      int     `json:"pipeline_depth"`
	Nodes      int     `json:"nodes"`
	Batch      int     `json:"batch"`
	Payload    int     `json:"payload"`
	WindowMS   float64 `json:"window_ms"`
	Blocks     uint64  `json:"blocks"`
	Txs        uint64  `json:"txs"`
	TPSk       float64 `json:"tps_k"`
	BlocksPerS float64 `json:"blocks_per_s"`
}

var ablationRegisterOnce sync.Once

// registerLiveMessages registers the consensus message set with the
// transport codec, once per process. Every live-cluster entry point
// (scheduler ablation, open-loop runs) calls it before booting nodes.
func registerLiveMessages() {
	ablationRegisterOnce.Do(func() {
		transport.RegisterMessages(
			&core.MsgNewView{}, &core.MsgProposal{}, &core.MsgVote{},
			&core.MsgDecide{}, &core.MsgRecoveryReq{}, &core.MsgRecoveryRpy{},
		)
	})
}

// AblationDepths are the chained-pipelining windows the ablation
// sweeps: depth 1 is the classic lock-step protocol, deeper
// windows keep that many heights in flight.
var AblationDepths = []int{1, 2, 4, 8}

// SchedAblation measures the live hot path end to end at each of the
// chained-pipelining depths in AblationDepths. Unlike every other
// experiment in this package it does NOT run on the simulator: it boots
// a real n-node TCP loopback cluster per depth with real ECDSA
// signatures and synthetic load, warms it up, and counts commits on one
// node over the measurement window. basePort spaces the clusters apart
// so lingering TIME_WAIT sockets from one run cannot collide with the
// next.
func SchedAblation(n, basePort int, d Durations) []SchedAblationRow {
	registerLiveMessages()
	rows := make([]SchedAblationRow, 0, len(AblationDepths))
	for i, depth := range AblationDepths {
		row, _ := runSchedConfig(depth, n, basePort+100*i, d, nil, 0)
		rows = append(rows, row)
	}
	return rows
}

// runSchedConfig boots one live loopback cluster of node-default
// replicas at the given chained-pipelining depth and measures its
// saturated synthetic throughput. A non-nil chaos wraps every link, so
// the measurement reflects the same network profile as whatever the
// caller compares it against. spanEvery > 0 additionally wires a
// per-node span tracer at that sampling rate (1 = every trace) and
// returns the tracers alongside the row, so the trace-breakdown bench
// can harvest stage attribution after the run; 0 leaves tracing
// disabled, which is the throughput baseline.
func runSchedConfig(depth, n, basePort int, d Durations, chaos *netchaos.Chaos, spanEvery int) (SchedAblationRow, []*obs.SpanTracer) {
	registerLiveMessages()
	if depth < 1 {
		depth = 1
	}
	const (
		batch   = 64
		payload = 64
		seed    = 77
	)
	f := (n - 1) / 2
	scheme := crypto.ECDSAScheme{}
	ring := crypto.NewKeyRing()
	privs := make([]crypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(seed, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		privs[i] = p
	}
	peers := transport.LocalPeers(n, basePort)

	var blocks, txs atomic.Uint64
	runtimes := make([]*transport.Runtime, 0, n)
	var tracers []*obs.SpanTracer
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		var spans *obs.SpanTracer
		if spanEvery > 0 {
			spans = obs.NewSpanTracer(obs.SpanConfig{SampleEvery: spanEvery, Node: uint64(i)})
			tracers = append(tracers, spans)
		}
		pcfg := protocol.Config{
			Self: id, N: n, F: f,
			BatchSize: batch, PayloadSize: payload,
			BaseTimeout: 500 * time.Millisecond, Seed: seed,
		}

		var secret [32]byte
		secret[0] = byte(id)
		rep := core.New(core.Config{
			Config:            pcfg,
			Scheme:            scheme,
			Ring:              ring,
			Priv:              privs[id],
			MachineSecret:     secret,
			SyntheticWorkload: true,
			Spans:             spans,
			PipelineDepth:     depth,
		})
		tcfg := transport.Config{
			Self:   id,
			Listen: peers[id],
			Peers:  peers,
			Scheme: scheme,
			Ring:   ring,
			Priv:   privs[id],
		}
		if chaos != nil {
			tcfg.Dial = chaos.Dialer(peers[id])
			tcfg.WrapAccepted = chaos.WrapAccepted(peers[id])
		}
		if id == 0 {
			tcfg.OnCommit = func(b *types.Block, _ *types.CommitCert) {
				blocks.Add(1)
				txs.Add(uint64(len(b.Txs)))
			}
		}
		rt := transport.New(tcfg, rep)
		if err := rt.Start(); err != nil {
			panic(fmt.Sprintf("sched ablation: start node %v (depth %d): %v", id, depth, err))
		}
		runtimes = append(runtimes, rt)
	}
	defer func() {
		for _, rt := range runtimes {
			rt.Stop()
		}
	}()

	// Warm up until the cluster actually commits, then for the
	// configured warmup on top (connection setup on a cold loopback
	// cluster can outlast a short -quick warmup).
	deadline := time.Now().Add(15 * time.Second)
	for blocks.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(d.Warmup)

	b0, t0 := blocks.Load(), txs.Load()
	start := time.Now()
	time.Sleep(d.Window)
	elapsed := time.Since(start)
	db, dt := blocks.Load()-b0, txs.Load()-t0

	return SchedAblationRow{
		Depth:      depth,
		Nodes:      n,
		Batch:      batch,
		Payload:    payload,
		WindowMS:   float64(elapsed.Milliseconds()),
		Blocks:     db,
		Txs:        dt,
		TPSk:       float64(dt) / elapsed.Seconds() / 1000,
		BlocksPerS: float64(db) / elapsed.Seconds(),
	}, tracers
}

// PrintSchedRows renders pipeline-depth ablation rows in the same
// style as PrintRows.
func PrintSchedRows(w io.Writer, title string, rows []SchedAblationRow) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "depth=%-2d n=%-3d batch=%-4d payload=%-4d window=%6.0fms blocks=%-5d tps=%7.2fK blocks/s=%6.1f\n",
			r.Depth, r.Nodes, r.Batch, r.Payload, r.WindowMS, r.Blocks, r.TPSk, r.BlocksPerS)
	}
}
