package harness

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"achilles/internal/loadgen"
	"achilles/internal/netchaos"
	"achilles/internal/obs"
)

// scrapeGauge fetches the admin /metrics endpoint and returns the value
// of the named sample, exactly as an operator's scraper would see it.
func scrapeGauge(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found at %s", name, url)
	return 0
}

// TestLiveOverloadSoak is the overload soak from the issue: a live n=3
// node-default cluster behind the netchaos WAN profile, offered
// roughly twice its measured saturation by an open-loop generator
// multiplexing >10,000 client sessions over a bounded connection pool.
// It checks the overload contract end to end:
//
//   - tail latency stays bounded (admission rejects instead of queueing),
//   - the node does not blow up goroutines or heap (scraped over the
//     admin /metrics endpoint like an operator would),
//   - request accounting conserves: every offered transaction ends as
//     exactly one of committed / dropped / timed-out / outstanding,
//   - nothing the generator confirmed exceeds what the cluster actually
//     committed (no phantom commits),
//   - admission control actually engaged (RETRY-AFTER responses seen),
//   - >=10,000 distinct sessions submitted load.
func TestLiveOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live overload soak: skipped in -short mode")
	}
	const (
		basePort = 27871
		sessions = 12000
		conns    = 16
	)

	// Closed-loop saturation probe under the same WAN profile as the
	// soak, floored so the offered rate stays a genuine overload even
	// on slow CI.
	probeChaos := netchaos.New(netchaos.Config{Seed: olSeed, Latency: 20 * time.Millisecond})
	probe, _ := runSchedConfig(1, 3, basePort, QuickDurations(), probeChaos, 0)
	sat := probe.TPSk * 1000
	if sat < 1000 {
		sat = 1000
	}
	t.Logf("saturation probe: %.0f tps", sat)

	adm := derivedAdmission(sat, conns)
	cl := startOpenLoopCluster(3, basePort+100, true, adm)
	defer cl.stop()

	// Admin endpoint on node 0, with process gauges registered the same
	// way achilles-node surfaces its runtime stats.
	reg := cl.nodes[0].reg
	reg.Func("go_goroutines", "Live goroutines in the process.", obs.KindGauge,
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(runtime.NumGoroutine())}}
		})
	reg.Func("go_heap_alloc_bytes", "Heap bytes currently allocated.", obs.KindGauge,
		func() []obs.Sample {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return []obs.Sample{{Value: float64(ms.HeapAlloc)}}
		})
	admin, err := obs.StartAdmin("127.0.0.1:0", obs.AdminConfig{Registry: reg})
	if err != nil {
		t.Fatalf("start admin: %v", err)
	}
	defer admin.Close()
	metricsURL := fmt.Sprintf("http://%s/metrics", admin.Addr())

	gen := loadgen.New(loadgen.Config{
		Peers:       cl.peers,
		Rate:        2 * sat,
		Sessions:    sessions,
		Conns:       conns,
		Seed:        olSeed,
		PayloadSize: olPayload,
		Timeout:     5 * time.Second,
		Tick:        50 * time.Millisecond, // see openLoopPoint: don't bottleneck on the emulated uplink
		Dial:        cl.chaos.Dialer("loadgen"),
	})
	if err := gen.Start(); err != nil {
		t.Fatalf("start generator: %v", err)
	}
	defer gen.Stop()

	deadline := time.Now().Add(20 * time.Second)
	for cl.blocks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no block committed within 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(time.Second) // warmup

	// Soak window with periodic /metrics scrapes. Long enough that the
	// Poisson session sampler touches >=10,000 of the 12,000 sessions
	// at 2x-saturation offered load.
	g0 := scrapeGauge(t, metricsURL, "go_goroutines")
	maxG, maxHeap := g0, 0.0
	for i := 0; i < 19; i++ {
		time.Sleep(time.Second)
		if g := scrapeGauge(t, metricsURL, "go_goroutines"); g > maxG {
			maxG = g
		}
		if h := scrapeGauge(t, metricsURL, "go_heap_alloc_bytes"); h > maxHeap {
			maxHeap = h
		}
	}
	gEnd := scrapeGauge(t, metricsURL, "go_goroutines")

	r := gen.Report()
	t.Logf("soak report: %s", r)
	t.Logf("goroutines start=%v max=%v end=%v heap-max=%.1f MiB lane-drops=%d cluster-committed-txs=%d",
		g0, maxG, gEnd, maxHeap/float64(1<<20), cl.laneDrops(), cl.txs.Load())

	// Resource bounds: open-loop load must not translate into
	// per-request goroutines or unbounded buffering.
	if maxG > 3000 {
		t.Errorf("goroutine blow-up: peaked at %.0f (want < 3000)", maxG)
	}
	if gEnd > 2*g0+500 {
		t.Errorf("goroutine growth during soak: start %.0f end %.0f", g0, gEnd)
	}
	if maxHeap > float64(1<<30) {
		t.Errorf("heap blow-up: peaked at %.0f MiB", maxHeap/float64(1<<20))
	}

	// Overload contract.
	if r.Offered == 0 || r.Committed == 0 {
		t.Fatalf("no traffic flowed: offered=%d committed=%d", r.Offered, r.Committed)
	}
	if got := r.Committed + r.Dropped + r.TimedOut + r.Outstanding; got != r.Offered {
		t.Errorf("accounting leak: committed+dropped+timedout+outstanding = %d, offered = %d", got, r.Offered)
	}
	if r.RejectedFull+r.RejectedRate == 0 {
		t.Error("no RETRY-AFTER responses at 2x saturation; admission control did not engage")
	}
	if committed := cl.txs.Load(); uint64(r.Committed) > committed {
		t.Errorf("phantom commits: generator confirmed %d, cluster committed %d", r.Committed, committed)
	}
	if r.Latency.P99 > 4500*time.Millisecond {
		t.Errorf("p99 unbounded under overload: %v", r.Latency.P99)
	}
	if r.SessionsSubmitted < 10000 {
		t.Errorf("only %d distinct sessions submitted load (want >= 10000)", r.SessionsSubmitted)
	}
	if r.SessionsCommitted == 0 {
		t.Error("no session saw a confirmed commit")
	}
}
