package harness

// Open-loop overload measurement on a live loopback TCP cluster: the
// live analogue of the paper's WAN evaluation row (Fig. 3, Sec. 5.1),
// with offered load decoupled from system speed. A loadgen.Generator
// multiplexes thousands of client sessions over a bounded connection
// pool against real nodes running the node-default hot path and mempool
// admission control, optionally behind a netchaos WAN profile (20 ms
// one-way latency = 40 ms RTT). Because the generator never slows
// down, what these rows expose is the overload contract: offered vs
// admitted vs committed rate, explicit RETRY-AFTER drops instead of
// unbounded queues, and bounded tail latency.

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/loadgen"
	"achilles/internal/mempool"
	"achilles/internal/netchaos"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// Open-loop runs reuse the scheduler-ablation workload shape so the
// closed-loop saturation probe and the open-loop rows are comparable.
const (
	olBatch   = 64
	olPayload = 64
	olSeed    = 77
)

// wanOneWay is the per-write injected latency of the WAN profile; the
// round trip matches the paper's 40 ms WAN row.
const wanOneWay = 20 * time.Millisecond

// OpenLoopConfig parameterizes OpenLoopLive.
type OpenLoopConfig struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// BasePort spaces the loopback clusters (default 26871).
	BasePort int
	// Sessions is the logical client-session population (default 10000).
	Sessions int
	// Conns bounds the generator's connection pool (default 16).
	Conns int
	// Multiples are the offered-load multiples of measured saturation to
	// run, one row each (default {1, 2}).
	Multiples []float64
	// WAN applies the netchaos WAN profile (20 ms one-way) to every
	// link, nodes and clients alike.
	WAN bool
	// Admission overrides the nodes' admission config. The zero value
	// derives one from the measured saturation: depth bound 16 batches,
	// per-connection rate 1.5× the fair share of saturation.
	Admission mempool.AdmissionConfig
	// SaturationTPS skips the closed-loop saturation probe when > 0.
	SaturationTPS float64
}

// OpenLoopRow is one open-loop overload measurement.
type OpenLoopRow struct {
	Nodes    int     `json:"nodes"`
	Sessions int     `json:"sessions"`
	Conns    int     `json:"conns"`
	Net      string  `json:"net"`
	Multiple float64 `json:"multiple"`
	WindowMS float64 `json:"window_ms"`
	// SaturationTPS is the closed-loop (synthetic, saturated) throughput
	// the offered load is scaled from.
	SaturationTPS float64 `json:"saturation_tps"`
	// OfferedTPS is what the generator sent; AdmittedTPS what the
	// cluster accepted (offered minus full-quorum admission drops);
	// CommittedTPS the confirmed goodput.
	OfferedTPS   float64 `json:"offered_tps"`
	AdmittedTPS  float64 `json:"admitted_tps"`
	CommittedTPS float64 `json:"committed_tps"`
	// RejectedFull / RejectedRate count RETRY-AFTER responses in the
	// window by reason; LaneDrops counts client-lane event steps the
	// nodes shed under pressure.
	RejectedFull uint64 `json:"rejected_full"`
	RejectedRate uint64 `json:"rejected_rate"`
	TimedOut     uint64 `json:"timed_out"`
	LaneDrops    uint64 `json:"lane_drops"`
	// Latency percentiles are cumulative over the run (ms).
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	// SessionsCommitted counts distinct sessions with at least one
	// confirmed transaction.
	SessionsCommitted int `json:"sessions_committed"`
}

func (r OpenLoopRow) String() string {
	return fmt.Sprintf("n=%-3d %-4s x%.1f sessions=%-6d conns=%-3d sat=%7.0f offered=%7.0f admitted=%7.0f committed=%7.0f rej=%d/%d lane-drops=%d p50=%6.1fms p99=%6.1fms p999=%6.1fms",
		r.Nodes, r.Net, r.Multiple, r.Sessions, r.Conns,
		r.SaturationTPS, r.OfferedTPS, r.AdmittedTPS, r.CommittedTPS,
		r.RejectedFull, r.RejectedRate, r.LaneDrops, r.P50MS, r.P99MS, r.P999MS)
}

// PrintOpenLoopRows renders open-loop rows like PrintRows.
func PrintOpenLoopRows(w io.Writer, title string, rows []OpenLoopRow) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
}

// OpenLoopLive measures the cluster's open-loop overload behavior: a
// closed-loop saturation probe first (synthetic workload — the
// SchedAblation configuration at depth 1), then one open-loop run
// per configured multiple of that saturation.
func OpenLoopLive(cfg OpenLoopConfig, d Durations) []OpenLoopRow {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 26871
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = 10000
	}
	if cfg.Conns == 0 {
		cfg.Conns = 16
	}
	if len(cfg.Multiples) == 0 {
		cfg.Multiples = []float64{1, 2}
	}
	sat := cfg.SaturationTPS
	if sat <= 0 {
		// The probe runs under the same network profile as the open-loop
		// points: "2x saturation" must mean twice what THIS network can
		// commit, not twice the LAN figure.
		var probeChaos *netchaos.Chaos
		if cfg.WAN {
			probeChaos = netchaos.New(netchaos.Config{Seed: olSeed, Latency: wanOneWay})
		}
		probe, _ := runSchedConfig(1, cfg.Nodes, cfg.BasePort, d, probeChaos, 0)
		sat = probe.TPSk * 1000
	}
	if sat <= 0 {
		sat = 1000 // degenerate probe; keep the runs meaningful
	}
	rows := make([]OpenLoopRow, 0, len(cfg.Multiples))
	for i, m := range cfg.Multiples {
		rows = append(rows, openLoopPoint(cfg, d, sat, m, cfg.BasePort+100*(i+1)))
	}
	return rows
}

// olNode is one live node of an open-loop cluster.
type olNode struct {
	rt  *transport.Runtime
	rep *core.Replica
	reg *obs.Registry
}

// olCluster is a live loopback cluster wired for open-loop load: real
// (non-synthetic) mempools with admission control answering overload
// with RETRY-AFTER backpressure.
type olCluster struct {
	nodes  []*olNode
	peers  map[types.NodeID]string
	chaos  *netchaos.Chaos
	blocks atomic.Uint64
	txs    atomic.Uint64
}

func (c *olCluster) stop() {
	for _, n := range c.nodes {
		n.rt.Stop()
	}
}

func (c *olCluster) laneDrops() uint64 {
	var total uint64
	for _, n := range c.nodes {
		total += n.rt.ClientLaneDrops()
	}
	return total
}

// derivedAdmission picks an admission config from measured saturation:
// the depth bound keeps queueing delay to a bounded number of batches
// (reject-not-block) and the per-connection token bucket admits 1.5×
// each connection's fair share, so both mechanisms engage at 2×.
func derivedAdmission(sat float64, conns int) mempool.AdmissionConfig {
	perConn := sat * 1.5 / float64(conns)
	burst := int(perConn / 4)
	if burst < 32 {
		burst = 32
	}
	return mempool.AdmissionConfig{
		MaxDepth:    16 * olBatch,
		ClientRate:  perConn,
		ClientBurst: burst,
		RetryAfter:  50 * time.Millisecond,
	}
}

// startOpenLoopCluster boots n node-default replicas on loopback TCP
// with real transaction pools, admission control and (optionally)
// the netchaos WAN profile on every link.
func startOpenLoopCluster(n, basePort int, wan bool, adm mempool.AdmissionConfig) *olCluster {
	registerLiveMessages()
	f := (n - 1) / 2
	scheme := crypto.ECDSAScheme{}
	ring := crypto.NewKeyRing()
	privs := make([]crypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(olSeed, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		privs[i] = p
	}
	cl := &olCluster{peers: transport.LocalPeers(n, basePort)}
	if wan {
		cl.chaos = netchaos.New(netchaos.Config{Seed: olSeed, Latency: wanOneWay})
	}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		pcfg := protocol.Config{
			Self: id, N: n, F: f,
			BatchSize: olBatch, PayloadSize: olPayload,
			BaseTimeout: 500 * time.Millisecond, Seed: olSeed,
		}
		reg := obs.NewRegistry()
		var secret [32]byte
		secret[0] = byte(id)
		rep := core.New(core.Config{
			Config:        pcfg,
			Scheme:        scheme,
			Ring:          ring,
			Priv:          privs[id],
			MachineSecret: secret,
			Admission:     adm,
			Obs:           reg,
		})
		tcfg := transport.Config{
			Self:   id,
			Listen: cl.peers[id],
			Peers:  cl.peers,
			Scheme: scheme,
			Ring:   ring,
			Priv:   privs[id],
		}
		if cl.chaos != nil {
			tcfg.Dial = cl.chaos.Dialer(cl.peers[id])
			tcfg.WrapAccepted = cl.chaos.WrapAccepted(cl.peers[id])
		}
		if id == 0 {
			tcfg.OnCommit = func(b *types.Block, _ *types.CommitCert) {
				cl.blocks.Add(1)
				cl.txs.Add(uint64(len(b.Txs)))
			}
		}
		rt := transport.New(tcfg, rep)
		if err := rt.Start(); err != nil {
			panic(fmt.Sprintf("open-loop: start node %v: %v", id, err))
		}
		cl.nodes = append(cl.nodes, &olNode{rt: rt, rep: rep, reg: reg})
	}
	return cl
}

// openLoopPoint runs one open-loop measurement at the given multiple of
// saturation.
func openLoopPoint(cfg OpenLoopConfig, d Durations, sat, multiple float64, basePort int) OpenLoopRow {
	adm := cfg.Admission
	if !adm.Enabled() {
		adm = derivedAdmission(sat, cfg.Conns)
	}
	cl := startOpenLoopCluster(cfg.Nodes, basePort, cfg.WAN, adm)
	defer cl.stop()

	gcfg := loadgen.Config{
		Peers:       cl.peers,
		Rate:        sat * multiple,
		Sessions:    cfg.Sessions,
		Conns:       cfg.Conns,
		Seed:        olSeed,
		PayloadSize: olPayload,
		Timeout:     5 * time.Second,
	}
	if cl.chaos != nil {
		gcfg.Dial = cl.chaos.Dialer("loadgen")
		// The WAN profile serializes a latency sleep into every frame
		// write, capping each connection at ~1/latency frames per
		// second. Batch a longer tick per frame so the generator's own
		// links are not the bottleneck — the point is to overload the
		// cluster's admission, not the emulated client uplink.
		gcfg.Tick = 50 * time.Millisecond
	}
	gen := loadgen.New(gcfg)
	if err := gen.Start(); err != nil {
		panic(fmt.Sprintf("open-loop: start generator: %v", err))
	}
	defer gen.Stop()

	// Warm up until commits flow (cold loopback connection setup can
	// outlast a short -quick warmup), then the configured warmup on top.
	deadline := time.Now().Add(15 * time.Second)
	for cl.blocks.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(d.Warmup)

	r0 := gen.Report()
	drops0 := cl.laneDrops()
	start := time.Now()
	time.Sleep(d.Window)
	elapsed := time.Since(start)
	r1 := gen.Report()

	offered := r1.Offered - r0.Offered
	committed := r1.Committed - r0.Committed
	dropped := r1.Dropped - r0.Dropped
	admitted := uint64(0)
	if offered > dropped {
		admitted = offered - dropped
	}
	return OpenLoopRow{
		Nodes:             cfg.Nodes,
		Sessions:          cfg.Sessions,
		Conns:             cfg.Conns,
		Net:               map[bool]string{false: "LAN", true: "WAN"}[cfg.WAN],
		Multiple:          multiple,
		WindowMS:          float64(elapsed.Milliseconds()),
		SaturationTPS:     sat,
		OfferedTPS:        float64(offered) / elapsed.Seconds(),
		AdmittedTPS:       float64(admitted) / elapsed.Seconds(),
		CommittedTPS:      float64(committed) / elapsed.Seconds(),
		RejectedFull:      r1.RejectedFull - r0.RejectedFull,
		RejectedRate:      r1.RejectedRate - r0.RejectedRate,
		TimedOut:          r1.TimedOut - r0.TimedOut,
		LaneDrops:         cl.laneDrops() - drops0,
		P50MS:             float64(r1.Latency.P50) / float64(time.Millisecond),
		P99MS:             float64(r1.Latency.P99) / float64(time.Millisecond),
		P999MS:            float64(r1.Latency.P999) / float64(time.Millisecond),
		SessionsCommitted: r1.SessionsCommitted,
	}
}
