package transport_test

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// initProbe is a protocol.Replica that counts messages delivered before
// and after its Init ran.
type initProbe struct {
	inited atomic.Bool
	early  atomic.Int64
	got    atomic.Int64
}

func (p *initProbe) Init(protocol.Env)     { p.inited.Store(true) }
func (p *initProbe) OnTimer(types.TimerID) {}
func (p *initProbe) OnMessage(types.NodeID, types.Message) {
	if !p.inited.Load() {
		p.early.Add(1)
	}
	p.got.Add(1)
}

// TestBootIntoSendingPeersRunsInitFirst reboots a node over and over
// into peers that never stop sending to it: every peer reconnects
// within a millisecond of the listener opening, so frames are waiting
// on the socket before the runtime finishes starting. The replica's
// Init must still run before its first OnMessage (a message reaching an
// uninitialized core.Replica panics). The rebooting node also lists
// many unreachable peers, which widens the gap between its listener
// opening and its Start returning.
func TestBootIntoSendingPeersRunsInitFirst(t *testing.T) {
	const (
		senders = 3
		unused  = 200
		boots   = 25
	)
	peers := transport.LocalPeers(senders+1, 23951)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := types.NodeID(1); id <= senders; id++ {
		rt := transport.New(transport.Config{
			Self: id, Listen: peers[id], Peers: peers,
			DialRetry: time.Millisecond, DialRetryMax: 2 * time.Millisecond,
		}, newRecorder())
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(0); !stop.Load(); seq++ {
				rt.Send(0, &seqMsg{Seq: seq})
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)

	// The rebooting node dials nobody: the frames under test arrive on
	// connections the senders open.
	bootPeers := map[types.NodeID]string{}
	for id, a := range peers {
		bootPeers[id] = a
	}
	for id := types.NodeID(senders + 1); id <= senders+unused; id++ {
		bootPeers[id] = "127.0.0.1:1"
	}
	noDial := func(string, string) (net.Conn, error) { return nil, errors.New("test: no outbound dials") }

	for i := 0; i < boots; i++ {
		probe := &initProbe{}
		rt := transport.New(transport.Config{
			Self: 0, Listen: peers[0], Peers: bootPeers,
			Dial: noDial, DialRetry: time.Second,
		}, probe)
		if err := rt.Start(); err != nil {
			t.Fatalf("boot %d: %v", i, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for probe.got.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		rt.Stop()
		if probe.got.Load() == 0 {
			t.Fatalf("boot %d: no frame from the sending peers within 5s", i)
		}
		if n := probe.early.Load(); n > 0 {
			t.Fatalf("boot %d: %d messages delivered before Init", i, n)
		}
	}
}
