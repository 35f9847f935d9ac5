package harness

import (
	"testing"
	"time"
)

// TestPipelineSpeedupSmoke is the CI bench-smoke gate for chained
// pipelining: a live loopback n=3 cluster of node-default replicas must
// commit at least as much at depth 4 as at depth 1 over a reduced
// measurement window. The full-window ablation (`make bench-sched`)
// measures the actual speedup; this only guards against a regression
// that makes the pipelined window slower than lock-step, so it compares
// with no margin and fails loudly when depth 4 loses.
func TestPipelineSpeedupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP bench smoke; skipped in -short")
	}
	d := Durations{Warmup: 500 * time.Millisecond, Window: 2 * time.Second}
	depth1, _ := runSchedConfig(1, 3, 29871, d, nil, 0)
	depth4, _ := runSchedConfig(4, 3, 29971, d, nil, 0)
	t.Logf("depth=1: %.1fk tps (%d blocks); depth=4: %.1fk tps (%d blocks)",
		depth1.TPSk, depth1.Blocks, depth4.TPSk, depth4.Blocks)
	if depth1.Blocks == 0 || depth4.Blocks == 0 {
		t.Fatalf("a configuration committed nothing: depth1=%d depth4=%d blocks",
			depth1.Blocks, depth4.Blocks)
	}
	if depth4.TPSk < depth1.TPSk {
		t.Fatalf("pipelining regression: depth-4 %.1fk tps < depth-1 %.1fk tps",
			depth4.TPSk, depth1.TPSk)
	}
}
