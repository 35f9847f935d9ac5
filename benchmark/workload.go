package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one traffic mix against one cluster shape.
type workload struct {
	name string
	why  string
	// Open loop: Poisson arrivals at rate tx/s, batched per tick.
	// Closed loop (rate 0): window requests outstanding per connection;
	// its tick is only its recovery drill's.
	rate   float64
	tick   time.Duration
	window int
	// wan puts every link, clients included, behind a 20 ms one-way
	// delay; durable gives every node a WAL-backed ledger at
	// fsync=always.
	wan     bool
	durable bool
}

// drillRate is the open-loop load of the recovery drill, tx/s: enough
// that every view has something to order, little enough that what piles
// up while node 2 is down drains within a fraction of a second on the
// WAN links too.
const drillRate = 200

// lanTick and wanTick are how long the open-loop driver batches
// arrivals into one request frame. netchaos serializes a 20 ms sleep
// into every write, so a WAN connection carries at most 50 frames/s and
// the driver must batch 50 ms per frame to keep its own uplink from
// being the bottleneck (as harness/openloop.go does).
const (
	lanTick = time.Millisecond
	wanTick = 50 * time.Millisecond
)

var workloads = []workload{
	{
		name: "lan3-open-8k",
		why:  "open loop 8000 tx/s, 0 ms delay: below queueing, so p50 is the sum of per-commit fixed costs and a per-layer saving shows as latency",
		rate: 8000, tick: lanTick,
	},
	{
		name:   "lan3-sat",
		why:    "closed loop, 2 connections x 2048 outstanding: the CPU-bound ceiling that crypto, sched and codec changes should raise",
		window: 2048, tick: lanTick,
	},
	{
		name: "wan3-open-600",
		why:  "open loop 600 tx/s behind 20 ms one-way links: latency is delay x communication steps, so CPU-layer savings predict no change",
		rate: 600, tick: wanTick, wan: true,
	},
	{
		name: "lan3-durable-crash",
		why:  "open loop 4000 tx/s, every commit fsynced, node 2 killed and rebooted from its WAL: a gain bought from durability or recovery shows",
		rate: 4000, tick: lanTick, durable: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phases are the lengths of one run's parts. The measured time is split
// evenly between a steady phase and a crash phase of crashCycles
// kill/reboot cycles of node 2.
type phases struct {
	setups int           // cluster set-ups timed; the last one carries the run
	warmup time.Duration // load offered before measuring starts
	steady time.Duration
	cycles int           // kill/reboot cycles of node 2
	down   time.Duration // node 2 held down per cycle
	up     time.Duration // load continues this long after each recovery
}

const (
	crashCycles = 4
	// holdDown is how long node 2 stays down in a full-length run. While
	// it is down, every third view is its own and stalls the survivors
	// for the 500 ms view timeout, and a rebooted node can finish
	// Algorithm 3 only once they have left such a view. The survivors
	// alternate two commits (a few ms on loopback, about 100 ms each over
	// the WAN links) with one stall, so 1.15 s after the kill they are 140
	// ms (LAN) or 150 to 350 ms (WAN) into their second stall. A hold-down
	// that can end on either side of a stall's edge, as 1.75 s did on the
	// WAN links, makes recovery_s bimodal: 0.66 s or 1.1 s.
	holdDown = 1150 * time.Millisecond
)

// planPhases splits seconds of measured time: half steady, half a crash
// phase of crashCycles cycles, each holdDown down (less when the cycle
// is too short for it) and a sixth of the cycle back up.
func planPhases(seconds float64, short bool) phases {
	total := time.Duration(seconds * float64(time.Second))
	cycle := total / 2 / crashCycles
	p := phases{
		setups: 11, warmup: 3 * time.Second, steady: total / 2,
		cycles: crashCycles, down: min(holdDown, cycle*7/10), up: cycle / 6,
	}
	if short {
		p.setups, p.warmup, p.cycles = 1, 300*time.Millisecond, 1
	}
	return p
}

// result is everything one run of one workload measured.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	DelayMS  float64 `json:"injected_one_way_delay_ms"`

	// End to end.
	CommitP50MS float64 `json:"commit_p50_ms"`
	GoodputTPS  float64 `json:"goodput_tps"`
	RecoveryS   float64 `json:"recovery_s"`
	SetupS      float64 `json:"setup_s"`
	FailedShare float64 `json:"failed_share"`

	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	TimedOut   int      `json:"timed_out"`
	Refused    int      `json:"refused"`
	Violations []string `json:"violations"`

	// Diagnostics, not gated.
	TailLabel     string    `json:"client_tail_percentile"`
	TailMS        float64   `json:"client_tail_ms"`
	ClientP99MS   float64   `json:"client_p99_ms"`
	LatencyN      int       `json:"latency_samples"`
	LatenessP50MS float64   `json:"lateness_p50_ms"`
	LatenessP99MS float64   `json:"lateness_p99_ms"`
	Recoveries    []float64 `json:"recovery_cycles_s"`
	Setups        []float64 `json:"setups_s"`
	Blocks        uint64    `json:"blocks"`

	Layers map[string]metric `json:"layers,omitempty"`
	Budget *budget           `json:"budget,omitempty"`

	spans *spanFile
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) correct() bool { return len(r.Violations) == 0 }

// bench is one cluster with the driver connected to it.
type bench struct {
	c *cluster
	d *driver
}

// setUp boots a cluster, connects the clients and waits for the first
// certified commit; it returns how long that took.
func setUp(opts clusterOpts) (*bench, float64, error) {
	t0 := time.Now()
	c, err := startCluster(opts)
	if err != nil {
		return nil, 0, err
	}
	d, err := newDriver(c.peers, c.clientDialer())
	if err == nil {
		err = d.probe()
	}
	if err != nil {
		if d != nil {
			d.close()
		}
		c.stop()
		return nil, 0, err
	}
	return &bench{c: c, d: d}, time.Since(t0).Seconds(), nil
}

// tearDown stops clients and nodes. It is safe to call twice.
func (b *bench) tearDown() error {
	b.d.close()
	return b.c.stop()
}

// finish ends a bench's load, stops it and runs the correctness
// checker over what it committed and acknowledged.
func (b *bench) finish(res *result) error {
	// Stopping an open loop over a backlog would strand the backlog: a
	// leader whose own pool is empty (the rebooted node never saw what
	// was sent while it was down) waits out its view instead of
	// proposing, and the rest would take seconds to drain.
	b.d.drainBacklog(10 * time.Second)
	b.d.stopLoad()
	// Let the followers commit what the leader already acknowledged
	// before the logs are compared.
	b.c.settle(2 * time.Second)
	if err := b.tearDown(); err != nil {
		return err
	}
	res.Violations = append(res.Violations, check(b.c, b.d)...)
	for _, c := range b.d.conns {
		for _, r := range c.reqs[1:] {
			res.Attempted++
			switch r.state {
			case stTimedOut, stPending:
				res.TimedOut++
			case stRefused:
				res.Refused++
			}
		}
	}
	return nil
}

// crashPhase runs the kill/reboot cycles of node 2 against a durable
// bench whose load keeps running.
func (b *bench) crashPhase(ph phases, res *result) {
	for i := 0; i < ph.cycles; i++ {
		rec, err := b.c.crashCycle(b.d, ph.down)
		if err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("crash cycle %d: %v", i+1, err))
			break
		}
		res.Violations = append(res.Violations, rec.violations...)
		res.Recoveries = append(res.Recoveries, rec.seconds)
		time.Sleep(ph.up)
	}
	res.RecoveryS = median(res.Recoveries)
}

// runWorkload runs one workload end to end: set-up (timed several
// times), warm-up, steady phase, crash phase, drain, correctness check
// and, when traced, the per-layer replay. workDir receives the durable
// nodes' data directories, which are removed again before returning.
func runWorkload(w workload, seed int64, seconds float64, traced, short bool, workDir string) (*result, error) {
	ph := planPhases(seconds, short)
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced}
	if w.wan {
		res.DelayMS = float64(wanOneWay) / float64(time.Millisecond)
	}
	runDir := filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)

	var b *bench
	for i := 0; i < ph.setups; i++ {
		if b != nil {
			if err := b.tearDown(); err != nil {
				return nil, err
			}
		}
		var took float64
		var err error
		b, took, err = setUp(clusterOpts{
			wan: w.wan, durable: w.durable, trace: traced,
			dir: filepath.Join(runDir, fmt.Sprintf("setup-%d", i)),
		})
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, took)
	}
	defer b.tearDown()
	res.SetupS = median(res.Setups)

	if w.rate > 0 {
		b.d.startOpenLoop(seed, w.rate, w.tick)
	} else {
		b.d.startClosedLoop(w.window)
	}
	time.Sleep(ph.warmup)
	b.c.capturing.Store(traced)
	steady0 := b.d.now()
	time.Sleep(ph.steady)
	steady1 := b.d.now()

	if w.durable {
		b.crashPhase(ph, res)
	}
	if err := b.finish(res); err != nil {
		return nil, err
	}
	if !w.durable {
		// The recovery drill: the same crash phase on a durable cluster of
		// its own with this workload's links, under a light open loop.
		drill, _, err := setUp(clusterOpts{wan: w.wan, durable: true, dir: filepath.Join(runDir, "drill")})
		if err != nil {
			return nil, err
		}
		defer drill.tearDown()
		drill.d.startOpenLoop(seed, drillRate, w.tick)
		time.Sleep(ph.warmup / 6)
		drill.crashPhase(ph, res)
		if err := drill.finish(res); err != nil {
			return nil, err
		}
	}

	summarize(res, b.d, steady0, steady1)
	res.Failed = res.TimedOut + res.Refused
	if !res.correct() {
		// A correctness violation fails every request of the run: no
		// latency or throughput from an incorrect run counts.
		res.Failed = res.Attempted
	}
	res.FailedShare = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Blocks = b.c.nodes[0].log.blocks
	if traced {
		var err error
		res.Layers, err = measureLayers(b.c, res, workDir)
		if err != nil {
			return nil, err
		}
		res.spans = collectSpans(b.c, b.d, res)
		if w.name == "lan3-open-8k" {
			res.Budget = latencyBudget(res)
		}
	}
	return res, nil
}

// summarize derives the client-side metrics: latency of the requests
// due in the steady phase and goodput of the replies that arrived in it.
func summarize(res *result, d *driver, steady0, steady1 int64) {
	var lat, late []float64
	acks := 0
	for _, c := range d.conns {
		for _, r := range c.reqs[1:] {
			if r.state == stAcked && r.acked >= steady0 && r.acked < steady1 {
				acks++
			}
			if r.due < steady0 || r.due >= steady1 {
				continue
			}
			late = append(late, float64(r.sent-r.due)/1e6)
			if r.state == stAcked {
				lat = append(lat, float64(r.acked-r.due)/1e6)
			}
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	res.CommitP50MS = quantile(lat, 0.5)
	res.LatencyN = len(lat)
	res.TailLabel, res.TailMS = tail(lat)
	// p99 needs a thousand samples to have ten beyond it; with fewer the
	// highest percentile that qualifies stands in.
	res.ClientP99MS = res.TailMS
	if len(lat) >= 1000 {
		res.ClientP99MS = quantile(lat, 0.99)
	}
	res.LatenessP50MS = quantile(late, 0.5)
	res.LatenessP99MS = quantile(late, 0.99)
	res.GoodputTPS = float64(acks) / (float64(steady1-steady0) / 1e9)
}
