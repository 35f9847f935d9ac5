package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/mempool"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// dropEnv wraps a replica's protocol.Env and silently discards every
// outbound MsgVote while the shared flag is set: the cleanest way to
// stall quorum assembly on a live cluster without touching the sockets.
// It forwards the trace-context accessors so span propagation (which
// core discovers by type assertion on its Env) keeps working through
// the wrapper.
type dropEnv struct {
	protocol.Env
	drop *atomic.Bool
}

func (e *dropEnv) Send(to types.NodeID, msg types.Message) {
	if e.drop.Load() {
		if _, ok := msg.(*core.MsgVote); ok {
			return
		}
	}
	e.Env.Send(to, msg)
}

func (e *dropEnv) Broadcast(msg types.Message) {
	if e.drop.Load() {
		if _, ok := msg.(*core.MsgVote); ok {
			return
		}
	}
	e.Env.Broadcast(msg)
}

func (e *dropEnv) SetTraceContext(ctx types.TraceContext) {
	if te, ok := e.Env.(interface{ SetTraceContext(types.TraceContext) }); ok {
		te.SetTraceContext(ctx)
	}
}

func (e *dropEnv) TraceContext() types.TraceContext {
	if te, ok := e.Env.(interface{ TraceContext() types.TraceContext }); ok {
		return te.TraceContext()
	}
	return types.TraceContext{}
}

// voteDropper interposes dropEnv between the transport runtime and the
// real replica.
type voteDropper struct {
	inner protocol.Replica
	drop  *atomic.Bool
}

func (v *voteDropper) Init(env protocol.Env) { v.inner.Init(&dropEnv{Env: env, drop: v.drop}) }
func (v *voteDropper) OnMessage(from types.NodeID, msg types.Message) {
	v.inner.OnMessage(from, msg)
}
func (v *voteDropper) OnTimer(id types.TimerID) { v.inner.OnTimer(id) }

// TestFlightRecorderLiveSoak drives the anomaly flight recorder end to
// end on a live n=3 loopback cluster with every trace sampled:
//
//  1. the cluster commits normally (no dumps),
//  2. every node starts dropping its votes, so no proposal can
//     assemble a quorum — each node's view timer fires and its flight
//     recorder dumps the evidence,
//  3. the drop is lifted and liveness resumes.
//
// The dumps must be bounded, parseable JSON; at least one must pin the
// stalled height as a still-open quorum-assembly span; and the same
// trace ID must appear in another node's dump (the backup's spans for
// the leader's proposal), proving cross-node correlation works on the
// wire, not just within one process.
func TestFlightRecorderLiveSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live flight-recorder soak: skipped in -short mode")
	}
	registerLiveMessages()
	const (
		n        = 3
		basePort = 28471
		batch    = 64
		payload  = 64
		seed     = 77
	)
	scheme := crypto.ECDSAScheme{}
	ring := crypto.NewKeyRing()
	privs := make([]crypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(seed, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		privs[i] = p
	}
	peers := transport.LocalPeers(n, basePort)

	var blocks atomic.Uint64
	var drop atomic.Bool
	flightDirs := make([]string, n)
	runtimes := make([]*transport.Runtime, 0, n)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		spans := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 1, Node: uint64(i)})
		flightDirs[i] = filepath.Join(t.TempDir(), "flight")
		flight, err := obs.NewFlightRecorder(obs.FlightConfig{
			Dir:         flightDirs[i],
			Node:        fmt.Sprintf("node-%d", i),
			MaxDumps:    4,
			MinInterval: 200 * time.Millisecond,
			Spans:       spans,
		})
		if err != nil {
			t.Fatalf("flight recorder node %d: %v", i, err)
		}
		var secret [32]byte
		secret[0] = byte(id)
		rep := core.New(core.Config{
			Config: protocol.Config{
				Self: id, N: n, F: (n - 1) / 2,
				BatchSize: batch, PayloadSize: payload,
				BaseTimeout: 300 * time.Millisecond, Seed: seed,
			},
			Scheme:            scheme,
			Ring:              ring,
			Priv:              privs[id],
			MachineSecret:     secret,
			SyntheticWorkload: true,
			Pool:              mempool.NewSynthetic(id, payload),
			Spans:             spans,
			Flight:            flight,
		})
		tcfg := transport.Config{
			Self:   id,
			Listen: peers[id],
			Peers:  peers,
			Scheme: scheme,
			Ring:   ring,
			Priv:   privs[id],
		}
		if id == 0 {
			tcfg.OnCommit = func(*types.Block, *types.CommitCert) { blocks.Add(1) }
		}
		rt := transport.New(tcfg, &voteDropper{inner: rep, drop: &drop})
		if err := rt.Start(); err != nil {
			t.Fatalf("start node %v: %v", id, err)
		}
		runtimes = append(runtimes, rt)
	}
	defer func() {
		for _, rt := range runtimes {
			rt.Stop()
		}
	}()

	waitFor := func(what string, d time.Duration, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Phase 1: healthy commits, and no anomaly dumps while healthy.
	waitFor("first commit", 15*time.Second, func() bool { return blocks.Load() > 0 })
	for i, dir := range flightDirs {
		if dumps := obs.ListFlightDumps(dir); len(dumps) != 0 {
			t.Fatalf("node %d dumped %d anomalies while healthy", i, len(dumps))
		}
	}

	// Phase 2: drop every vote; quorum assembly stalls cluster-wide and
	// each node's view timeout must trip its flight recorder.
	drop.Store(true)
	waitFor("anomaly dumps on every node", 10*time.Second, func() bool {
		for _, dir := range flightDirs {
			if len(obs.ListFlightDumps(dir)) == 0 {
				return false
			}
		}
		return true
	})

	// Phase 3: lift the drop; the pacemaker must restore liveness.
	drop.Store(false)
	resumeFrom := blocks.Load()
	waitFor("commits to resume", 15*time.Second, func() bool { return blocks.Load() > resumeFrom })

	// Every dump parses, dump counts stay bounded, and every node
	// reported the stall as a view timeout.
	dumpsByNode := make([][]harnessFlightDump, n)
	for i, dir := range flightDirs {
		files := obs.ListFlightDumps(dir)
		if len(files) == 0 || len(files) > 4 {
			t.Fatalf("node %d kept %d dumps, want 1..4", i, len(files))
		}
		sawTimeout := false
		for _, path := range files {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			var dump harnessFlightDump
			if err := json.Unmarshal(buf, &dump); err != nil {
				t.Fatalf("dump %s is not parseable JSON: %v", path, err)
			}
			if dump.Reason == "view-timeout" {
				sawTimeout = true
			}
			dumpsByNode[i] = append(dumpsByNode[i], dump)
		}
		if !sawTimeout {
			t.Fatalf("node %d dumped without a view-timeout reason", i)
		}
	}

	// Cross-node correlation: find a still-open quorum-assembly span
	// (the stalled leader waiting for the votes we dropped) and require
	// its trace ID in a DIFFERENT node's dump — the backup processed the
	// same proposal under the same wire-carried trace context.
	type stall struct {
		node    int
		traceID uint64
		height  uint64
	}
	var stalls []stall
	for i, dumps := range dumpsByNode {
		for _, d := range dumps {
			for _, sp := range d.Spans.Active {
				if sp.Stage == obs.StageQuorum && sp.TraceID != 0 {
					stalls = append(stalls, stall{node: i, traceID: sp.TraceID, height: sp.Height})
				}
			}
		}
	}
	if len(stalls) == 0 {
		t.Fatalf("no dump captured an open quorum-assembly span for the stalled height")
	}
	correlated := false
	for _, st := range stalls {
		for j, dumps := range dumpsByNode {
			if j == st.node {
				continue
			}
			for _, d := range dumps {
				for _, sp := range append(d.Spans.Spans, d.Spans.Active...) {
					if sp.TraceID == st.traceID {
						correlated = true
						// A backup tags spans for an in-flight proposal
						// with its own committed position, which trails
						// the proposal's height by the pipeline depth —
						// but can never be ahead of the stalled height.
						if sp.Height > st.height {
							t.Fatalf("trace %#x: node %d saw height %d, stalled leader height %d",
								st.traceID, j, sp.Height, st.height)
						}
					}
				}
			}
		}
	}
	if !correlated {
		t.Fatalf("no other node's dump shares a stalled trace ID: cross-node correlation broken (stalls=%+v)", stalls)
	}

	// CI artifact hook: the dumps live in t.TempDir and vanish with the
	// test, so when ACHILLES_FLIGHT_ARTIFACTS is set, copy them out for
	// upload (one subdirectory per node).
	if out := os.Getenv("ACHILLES_FLIGHT_ARTIFACTS"); out != "" {
		for i, dir := range flightDirs {
			dst := filepath.Join(out, fmt.Sprintf("node-%d", i))
			if err := os.MkdirAll(dst, 0o755); err != nil {
				t.Fatalf("artifact dir: %v", err)
			}
			for _, path := range obs.ListFlightDumps(dir) {
				buf, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("artifact read: %v", err)
				}
				if err := os.WriteFile(filepath.Join(dst, filepath.Base(path)), buf, 0o644); err != nil {
					t.Fatalf("artifact write: %v", err)
				}
			}
		}
		t.Logf("flight dumps copied to %s", out)
	}
}

// harnessFlightDump decodes the slice of obs.FlightDump this test
// asserts on (Status is process-specific, so the full schema would not
// round-trip into a typed struct anyway).
type harnessFlightDump struct {
	Reason string           `json:"reason"`
	Node   string           `json:"node"`
	View   uint64           `json:"view"`
	Height uint64           `json:"height"`
	Spans  obs.SpanSnapshot `json:"spans"`
}
