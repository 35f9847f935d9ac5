package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"achilles/internal/core"
	"achilles/internal/core/accum"
	"achilles/internal/core/checker"
	"achilles/internal/crypto"
	"achilles/internal/ledger"
	"achilles/internal/mempool"
	"achilles/internal/sched"
	"achilles/internal/statemachine"
	"achilles/internal/tee"
	"achilles/internal/transport"
	"achilles/internal/types"
	"achilles/internal/wal"
)

// The per-layer metrics of a traced run. Nothing inside the program is
// instrumented: each layer is measured from outside, either by reading
// a counter it already exports or by timing calls into its public
// functions on the blocks and certificates the run committed. Times are
// medians of one call.

// layerUnits names every per-layer metric with its unit, in the order
// the table prints them.
var layerUnits = []struct{ name, unit string }{
	{"crypto.sign_us", "us"},
	{"crypto.verify_us", "us"},
	{"crypto.quorum_verify_us", "us"},
	{"crypto.cache_hit_ratio", "ratio"},
	{"types.encode_us", "us"},
	{"types.decode_us", "us"},
	{"types.hash_us", "us"},
	{"types.bytes_per_commit", "B"},
	{"transport.msgs_per_commit", "count"},
	{"transport.bytes_per_commit", "B"},
	{"transport.send_drops", "count"},
	{"transport.frame_rtt_us", "us"},
	{"sched.hop_us", "us"},
	{"mempool.txs_per_batch", "count"},
	{"mempool.stage_drain_us", "us"},
	{"mempool.rejected", "count"},
	{"tee.ecalls_per_commit", "count"},
	{"checker.prepare_us", "us"},
	{"checker.store_us", "us"},
	{"checker.store_commit_us", "us"},
	{"checker.view_us", "us"},
	{"accum.accum_us", "us"},
	{"ledger.append_commit_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_commit", "B"},
	{"ledger.replay_s", "s"},
	{"statemachine.execute_us", "us"},
	{"core.view_timeouts", "count"},
	{"core.commit_skew_ms", "ms"},
	{"core.commit_interval_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.lateness_p50_ms", "ms"},
	{"client.lateness_p99_ms", "ms"},
}

// samples collects the durations of repeated calls of one kind.
type samples []float64

func (s *samples) time(fn func()) {
	t0 := time.Now()
	fn()
	*s = append(*s, float64(time.Since(t0))/1e3)
}

// replayNode is one node's trusted components, rebuilt outside the
// cluster from the same keys.
type replayNode struct {
	chk *checker.Checker
	acc *accum.Accumulator
}

func leaderOf(v types.View) types.NodeID { return types.LeaderForView(v, nNodes) }

func newReplayNodes(c *cluster) []*replayNode {
	nodes := make([]*replayNode, nNodes)
	for i := range nodes {
		id := types.NodeID(i)
		var secret [32]byte
		secret[0] = byte(id)
		enc := tee.New(tee.Config{
			Measurement:   types.HashBytes([]byte("achilles-trusted-components-v1")),
			MachineSecret: secret,
		})
		svc := crypto.NewService(c.scheme, c.ring, c.privs[i], id, nil, crypto.Costs{})
		nodes[i] = &replayNode{
			chk: checker.New(checker.Config{
				Enclave: enc, Service: svc, LeaderOf: leaderOf, Quorum: fFaults + 1,
				GenesisHash: types.GenesisBlock().Hash(),
			}),
			acc: accum.New(enc, svc, fFaults+1),
		}
	}
	return nodes
}

// measureLayers fills the per-layer table of a traced run. workDir
// receives a scratch data directory, removed again before returning.
func measureLayers(c *cluster, res *result, workDir string) (map[string]metric, error) {
	out := make(map[string]float64)
	captured := c.nodes[0].log.captured
	if len(captured) == 0 {
		return nil, fmt.Errorf("traced run of %s captured no committed block", res.Workload)
	}

	replayed, err := replayTrusted(c, captured, out)
	if err != nil {
		return nil, err
	}
	measureCrypto(c, captured, out)
	measureCodec(captured, replayed, out)
	measureMempoolAndMachine(captured, out)
	if err := measureStorage(replayed, workDir, out); err != nil {
		return nil, err
	}
	if err := measureFrameRTT(replayed, out); err != nil {
		return nil, err
	}
	measureSchedHop(out)
	readCounters(c, res, out)

	table := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		table[lu.name] = metric{Value: out[lu.name], Unit: lu.unit}
	}
	return table, nil
}

// replayedCommit is one captured block re-proposed on the replay
// nodes: the same transactions and results on a chain that starts at
// genesis, with the certificates the replay nodes produced for it.
type replayedCommit struct {
	block *types.Block
	bc    *types.BlockCert
	sc    *types.StoreCert
	cc    *types.CommitCert
}

// accumEvery is how often the replay takes the accumulator path, which
// the live cluster takes only after a view timed out.
const accumEvery = 16

// replayTrusted drives the captured blocks through three rebuilt
// checkers and accumulators in the order a live commit calls them:
// TEEview on every node, TEEprepare on the leader, TEEstore on leader
// and follower, TEEstoreCommit on every node.
func replayTrusted(c *cluster, captured []capturedCommit, out map[string]float64) ([]replayedCommit, error) {
	nodes := newReplayNodes(c)
	var prepare, store, storeCommit, view, accumulate, hash samples
	replayed := make([]replayedCommit, 0, len(captured))
	parent := types.GenesisBlock()
	var prevCC *types.CommitCert
	for k, cm := range captured {
		v := types.View(k + 1)
		leader := leaderOf(v)
		follower := (leader + 1) % nNodes
		vcs := make([]*types.ViewCert, nNodes)
		for i, n := range nodes {
			var err error
			view.time(func() { vcs[i], err = n.chk.TEEview() })
			if err != nil {
				return nil, fmt.Errorf("replay TEEview: %w", err)
			}
		}
		b := &types.Block{
			Txs: cm.block.Txs, Op: cm.block.Op, Parent: parent.Hash(),
			View: v, Height: parent.Height + 1, Proposer: leader,
		}
		var h types.Hash
		hash.time(func() { h = b.Hash() })

		var acc *types.AccCert
		if prevCC == nil || k%accumEvery == 0 {
			var err error
			accumulate.time(func() {
				acc, err = nodes[leader].acc.TEEaccum(vcs[leader], []*types.ViewCert{vcs[leader], vcs[follower]})
			})
			if err != nil {
				return nil, fmt.Errorf("replay TEEaccum: %w", err)
			}
		}
		var bc *types.BlockCert
		var err error
		if acc != nil {
			// Not a prepare sample: verifying the accumulator certificate
			// is not part of the fast path the live cluster runs.
			bc, err = nodes[leader].chk.TEEprepare(b, h, acc, nil)
		} else {
			prepare.time(func() { bc, err = nodes[leader].chk.TEEprepare(b, h, nil, prevCC) })
		}
		if err != nil {
			return nil, fmt.Errorf("replay TEEprepare: %w", err)
		}
		scs := make([]*types.StoreCert, 0, fFaults+1)
		for _, id := range []types.NodeID{leader, follower} {
			var sc *types.StoreCert
			store.time(func() { sc, err = nodes[id].chk.TEEstore(bc) })
			if err != nil {
				return nil, fmt.Errorf("replay TEEstore: %w", err)
			}
			scs = append(scs, sc)
		}
		cc := &types.CommitCert{
			Hash: h, View: v, Height: b.Height,
			Signers: []types.NodeID{scs[0].Signer, scs[1].Signer},
			Sigs:    []types.Signature{scs[0].Sig, scs[1].Sig},
		}
		for _, n := range nodes {
			storeCommit.time(func() { err = n.chk.TEEstoreCommit(cc) })
			if err != nil {
				return nil, fmt.Errorf("replay TEEstoreCommit: %w", err)
			}
		}
		replayed = append(replayed, replayedCommit{block: b, bc: bc, sc: scs[1], cc: cc})
		parent, prevCC = b, cc
	}
	out["checker.prepare_us"] = median(prepare)
	out["checker.store_us"] = median(store)
	out["checker.store_commit_us"] = median(storeCommit)
	out["checker.view_us"] = median(view)
	out["accum.accum_us"] = median(accumulate)
	out["types.hash_us"] = median(hash)
	return replayed, nil
}

// measureCrypto times the signing service on the certificates the live
// nodes signed, configured as the default node configures it: under
// sched.Sync there is no verified-certificate cache.
func measureCrypto(c *cluster, captured []capturedCommit, out map[string]float64) {
	svc := crypto.NewService(c.scheme, c.ring, c.privs[0], 0, nil, crypto.Costs{})
	var sign, verify, quorum samples
	for _, cm := range captured {
		cc := cm.cc
		payload := types.StoreCertPayload(cc.Hash, cc.View, cc.Height)
		sign.time(func() { svc.Sign(payload) })
		verify.time(func() { svc.Verify(cc.Signers[0], payload, cc.Sigs[0]) })
		quorum.time(func() {
			svc.VerifyQuorumBatch(cc.Signers[:fFaults+1], payload, cc.Sigs[:fFaults+1], nil)
		})
	}
	out["crypto.sign_us"] = median(sign)
	out["crypto.verify_us"] = median(verify)
	out["crypto.quorum_verify_us"] = median(quorum)
	// The default configuration attaches no CertCache to a node, so there
	// is nothing to hit; the row is here for the change that adds one.
	out["crypto.cache_hit_ratio"] = 0
}

// measureCodec times the wire codec on one proposal, one vote and one
// decide per commit: the live blocks and commit certificates, with the
// block and store certificates of the replay (the live ones never leave
// the nodes).
func measureCodec(captured []capturedCommit, replayed []replayedCommit, out map[string]float64) {
	var encode, decode samples
	var bytes float64
	buf := make([]byte, 0, 1<<16)
	for k, cm := range captured {
		msgs := []types.FastWireMessage{
			&core.MsgProposal{Block: cm.block, BC: replayed[k].bc},
			&core.MsgVote{SC: replayed[k].sc},
			&core.MsgDecide{CC: cm.cc},
		}
		var enc, dec float64
		for _, m := range msgs {
			var e, d samples
			e.time(func() { buf = m.AppendWire(buf[:0]) })
			bytes += float64(len(buf))
			d.time(func() { types.FastWireDecoder(m.WireTag())(types.NewWireReader(buf)) })
			enc, dec = enc+e[0], dec+d[0]
		}
		encode, decode = append(encode, enc), append(decode, dec)
	}
	out["types.encode_us"] = median(encode)
	out["types.decode_us"] = median(decode)
	out["types.bytes_per_commit"] = bytes / float64(len(captured))
}

func measureMempoolAndMachine(captured []capturedCommit, out map[string]float64) {
	var stageDrain, execute samples
	pool := mempool.New()
	machine := statemachine.NewDigestMachine(nil, 0)
	var parentOp []byte
	for _, cm := range captured {
		stageDrain.time(func() {
			pool.Stage(cm.block.Txs, 0)
			pool.DrainStaged()
		})
		pool.NextBatch(len(cm.block.Txs), 0)
		pool.MarkCommitted(cm.block.Txs)
		execute.time(func() { parentOp = machine.Execute(parentOp, cm.block.Txs) })
	}
	out["mempool.stage_drain_us"] = median(stageDrain)
	out["statemachine.execute_us"] = median(execute)
}

// storageBlocks bounds how many commits the storage layers are timed
// on: every one is an fsync.
const storageBlocks = 256

// measureStorage appends the replayed chain to a durable ledger and to
// a bare WAL at fsync=always, then times reopening the ledger, which
// replays the whole log.
func measureStorage(replayed []replayedCommit, workDir string, out map[string]float64) error {
	dir, err := os.MkdirTemp(workDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if len(replayed) > storageBlocks {
		replayed = replayed[:storageBlocks]
	}
	opts := ledger.DurableOptions{Dir: filepath.Join(dir, "ledger"), Fsync: wal.PolicyAlways, KeepWAL: true, IgnoreSnapshots: true}
	d, err := ledger.OpenDurable(opts)
	if err != nil {
		return err
	}
	var appendCommit samples
	for _, r := range replayed {
		appendCommit.time(func() { err = d.AppendCommit(r.block, r.cc) })
		if err != nil {
			d.Abort()
			return fmt.Errorf("ledger append: %w", err)
		}
	}
	recordBytes := int(d.Log().SizeBytes()) / len(replayed)
	if err := d.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	d, err = ledger.OpenDurable(opts)
	if err != nil {
		return fmt.Errorf("ledger replay: %w", err)
	}
	out["ledger.replay_s"] = time.Since(t0).Seconds()
	restored, _ := d.Recovered().Tip()
	d.Abort()
	if int(restored) != len(replayed) {
		return fmt.Errorf("ledger replay restored height %d of %d appended", restored, len(replayed))
	}

	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	var walAppend samples
	payload := make([]byte, recordBytes)
	for range replayed {
		walAppend.time(func() { _, err = log.Append(payload) })
		if err != nil {
			log.Abort()
			return fmt.Errorf("wal append: %w", err)
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	out["ledger.append_commit_us"] = median(appendCommit)
	out["wal.append_us"] = median(walAppend)
	out["wal.bytes_per_commit"] = float64(recordBytes)
	return nil
}

// measureFrameRTT echoes vote frames over one loopback TCP connection
// with the transport's WriteFrame and ReadFrame. It pauses between
// frames so that, as between two live nodes, the reader has gone to
// sleep in the poller by the time a frame arrives.
func measureFrameRTT(replayed []replayedCommit, out map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for {
			from, msg, _, err := transport.ReadFrame(conn)
			if err != nil {
				echoed <- nil // the dialing side closed: done
				return
			}
			if err := transport.WriteFrame(conn, from, msg); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var rtt samples
	for i := 0; i < 2000 && err == nil; i++ {
		vote := &core.MsgVote{SC: replayed[i%len(replayed)].sc}
		time.Sleep(100 * time.Microsecond)
		rtt.time(func() {
			if err = transport.WriteFrame(conn, 0, vote); err == nil {
				_, _, _, err = transport.ReadFrame(conn)
			}
		})
	}
	conn.Close()
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	if err != nil {
		return fmt.Errorf("frame echo: %w", err)
	}
	out["transport.frame_rtt_us"] = median(rtt)
	return nil
}

// measureSchedHop times one message through the default scheduler the
// way the runtime uses it: Ingress hands the step to a consensus
// goroutine, the step hands its reply to Egress.
func measureSchedHop(out map[string]float64) {
	s := sched.NewSync()
	steps := make(chan func())
	stop := make(chan struct{})
	loopDone := make(chan struct{})
	s.Bind(func(_ sched.Lane, step func()) { steps <- step })
	go func() {
		defer close(loopDone)
		for {
			select {
			case step := <-steps:
				step()
			case <-stop:
				return
			}
		}
	}()
	msg := &core.MsgVote{}
	replied := make(chan struct{})
	var hop samples
	for i := 0; i < 20000; i++ {
		hop.time(func() {
			s.Ingress(0, msg, types.TraceContext{}, func() {
				s.Egress(func() { replied <- struct{}{} })
			})
			<-replied
		})
	}
	close(stop)
	<-loopDone
	s.Stop()
	out["sched.hop_us"] = median(hop)
}

// readCounters fills the metrics that are counts the layers export, or
// that the benchmark's own records of the run give.
func readCounters(c *cluster, res *result, out map[string]float64) {
	log0 := c.nodes[0].log
	blocks := float64(max(log0.blocks, 1))
	var sum counters
	for _, nd := range c.nodes {
		sum.peerMsgs += nd.totals.peerMsgs
		sum.peerBytes += nd.totals.peerBytes
		sum.sendDrops += nd.totals.sendDrops
		sum.ecalls += nd.totals.ecalls
		sum.rejected += nd.totals.rejected
		sum.viewTimeouts += nd.totals.viewTimeouts
	}
	out["transport.msgs_per_commit"] = sum.peerMsgs / blocks
	out["transport.bytes_per_commit"] = sum.peerBytes / blocks
	out["transport.send_drops"] = sum.sendDrops
	out["tee.ecalls_per_commit"] = sum.ecalls / blocks
	out["mempool.rejected"] = sum.rejected
	out["mempool.txs_per_batch"] = float64(log0.txs) / blocks
	out["core.view_timeouts"] = sum.viewTimeouts

	// Follower lag: for every height all nodes stamped, last minus first.
	var skew, interval samples
	times := make([][]int64, len(c.nodes))
	shortest := int(^uint(0) >> 1)
	for i, nd := range c.nodes {
		times[i] = nd.log.times
		shortest = min(shortest, len(times[i]))
	}
	for h := 1; h < shortest; h++ {
		lo, hi := times[0][h], times[0][h]
		for _, t := range times[1:] {
			lo, hi = min(lo, t[h]), max(hi, t[h])
		}
		if lo > 0 {
			skew = append(skew, float64(hi-lo)/1e6)
		}
		if prev := times[0][h-1]; prev > 0 && times[0][h] > 0 {
			interval = append(interval, float64(times[0][h]-prev)/1e6)
		}
	}
	out["core.commit_skew_ms"] = median(skew)
	out["core.commit_interval_ms"] = median(interval)

	out["client.p99_ms"] = res.ClientP99MS
	out["client.lateness_p50_ms"] = res.LatenessP50MS
	out["client.lateness_p99_ms"] = res.LatenessP99MS
}

// budgetRow is one line of the latency budget: a layer's calls on the
// path of one request, the time of one call, and their product.
type budgetRow struct {
	Layer   string  `json:"layer"`
	Calls   float64 `json:"calls_on_path"`
	EachUS  float64 `json:"each_us"`
	TotalMS float64 `json:"total_ms"`
}

// budget sets the time the layers account for against the median
// commit latency of lan3-open-8k.
type budget struct {
	CommitP50MS    float64     `json:"commit_p50_ms"`
	Rows           []budgetRow `json:"rows"`
	AttributedMS   float64     `json:"budget.attributed_ms"`
	UnattributedMS float64     `json:"budget.unattributed_ms"`
	CryptoMS       float64     `json:"budget.crypto_ms"`
	CryptoShare    float64     `json:"budget.crypto_share"`
}

// latencyBudget adds up, layer by layer, what stands between a request
// falling due and its certified reply on an unloaded n=3 cluster: the
// driver's batching, four one-way frames (client to leader, proposal,
// vote, reply), three scheduler hops, the wait for the next leader
// slot (half a commit interval), and the leader's and one follower's
// work on the block. Codec time counts the decide too, which the
// replying leader does not wait for: a small overcount.
func latencyBudget(res *result) *budget {
	l := func(name string) float64 { return res.Layers[name].Value }
	b := &budget{CommitP50MS: res.CommitP50MS}
	add := func(layer string, calls, eachUS float64) {
		row := budgetRow{Layer: layer, Calls: calls, EachUS: eachUS, TotalMS: calls * eachUS / 1e3}
		b.Rows = append(b.Rows, row)
		b.AttributedMS += row.TotalMS
	}
	add("client.lateness_p50_ms", 1, l("client.lateness_p50_ms")*1e3)
	add("transport.frame_rtt_us (one way = half)", 4, l("transport.frame_rtt_us")/2)
	add("sched.hop_us", 3, l("sched.hop_us"))
	add("mempool.stage_drain_us", 1, l("mempool.stage_drain_us"))
	add("core.commit_interval_ms (slot wait = half)", 1, l("core.commit_interval_ms")*1e3/2)
	add("statemachine.execute_us", 2, l("statemachine.execute_us"))
	add("types.hash_us", 2, l("types.hash_us"))
	add("types.encode_us", 1, l("types.encode_us"))
	add("types.decode_us", 1, l("types.decode_us"))
	add("checker.prepare_us", 1, l("checker.prepare_us"))
	add("checker.store_us", 1, l("checker.store_us"))
	add("crypto.verify_us (vote)", 1, l("crypto.verify_us"))
	add("checker.store_commit_us", 1, l("checker.store_commit_us"))
	b.UnattributedMS = b.CommitP50MS - b.AttributedMS
	// Signatures on the path: the leader signs the block certificate,
	// the follower verifies it and signs its vote, the leader verifies
	// the vote and then the two-signature commit certificate.
	b.CryptoMS = (2*l("crypto.sign_us") + 2*l("crypto.verify_us") + l("crypto.quorum_verify_us")) / 1e3
	if b.CommitP50MS > 0 {
		b.CryptoShare = b.CryptoMS / b.CommitP50MS
	}
	return b
}

// spanFile is what a traced run writes at exit: one span per sampled
// request and the commit time of every height on every node.
type spanFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Requests []requestSpan `json:"requests"`
	Heights  []heightSpan  `json:"heights"`
}

// requestSpan follows one request: due, sent and certified, in ns since
// the driver started.
type requestSpan struct {
	Client    int32  `json:"client"`
	Seq       uint32 `json:"seq"`
	DueNS     int64  `json:"due_ns"`
	SentNS    int64  `json:"sent_ns"`
	CertifyNS int64  `json:"certified_ns"`
}

// heightSpan is when each node's OnCommit fired for a height, in ns
// since the cluster started; 0 where a node never reported it.
type heightSpan struct {
	Height   uint64  `json:"height"`
	CommitNS []int64 `json:"commit_ns"`
}

// maxSpans bounds each list of the span file.
const maxSpans = 20000

func collectSpans(c *cluster, d *driver, res *result) *spanFile {
	f := &spanFile{Workload: res.Workload, Seed: res.Seed}
	total := 0
	for _, cc := range d.conns {
		total += len(cc.reqs) - 1
	}
	every := total/maxSpans + 1
	for _, cc := range d.conns {
		for s := 1; s < len(cc.reqs); s += every {
			r := cc.reqs[s]
			f.Requests = append(f.Requests, requestSpan{
				Client: int32(cc.id - types.ClientIDBase), Seq: uint32(s),
				DueNS: r.due, SentNS: r.sent, CertifyNS: r.acked,
			})
		}
	}
	sort.Slice(f.Requests, func(i, j int) bool { return f.Requests[i].DueNS < f.Requests[j].DueNS })
	heights := 0
	for _, nd := range c.nodes {
		heights = max(heights, len(nd.log.times))
	}
	for h := 1; h < min(heights, maxSpans); h++ {
		hs := heightSpan{Height: uint64(h), CommitNS: make([]int64, len(c.nodes))}
		for i, nd := range c.nodes {
			if h < len(nd.log.times) {
				hs.CommitNS[i] = nd.log.times[h]
			}
		}
		f.Heights = append(f.Heights, hs)
	}
	return f
}
