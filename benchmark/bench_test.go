package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"achilles/internal/types"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	for _, tc := range []struct {
		n     int
		label string
	}{
		{19, ""},
		{20, "p50"},
		{99, "p50"},
		{100, "p90"},
		{999, "p90"},
		{1000, "p99"}, // exactly ten samples beyond p99
		{100000, "p99.99"},
	} {
		if label, _ := tail(ramp(tc.n)); label != tc.label {
			t.Errorf("tail of %d samples = %q, want %q", tc.n, label, tc.label)
		}
	}
	if _, v := tail(ramp(1000)); v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := iqrShare(vs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	take := func(seed int64) []int64 {
		s := newSchedule(seed, 8000)
		out := make([]int64, 0, 2000)
		for i := 0; i < 1000; i++ {
			a := s.Next()
			out = append(out, int64(a.At), int64(a.Session))
		}
		return out
	}
	a, b, c := take(7), take(7), take(8)
	same := func(x, y []int64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave two different arrival schedules")
	}
	if same(a, c) {
		t.Error("two seeds gave the same arrival schedule")
	}
}

// logOf builds the commit log of a node that committed the given
// blocks, each a list of sequence numbers of one client.
func logOf(client types.NodeID, blocks ...[]uint32) *commitLog {
	l := &commitLog{seen: make(map[types.NodeID][]byte)}
	parent := types.GenesisBlock()
	for _, seqs := range blocks {
		b := &types.Block{Parent: parent.Hash(), Height: parent.Height + 1, View: types.View(parent.Height + 1)}
		for _, s := range seqs {
			b.Txs = append(b.Txs, types.Transaction{Client: client, Seq: s})
		}
		l.record(b, nil, 0, false, 0)
		parent = b
	}
	return l
}

func TestCheckerTripsOnPlantedViolations(t *testing.T) {
	const client = clientBase
	clean := func() []*commitLog {
		return []*commitLog{
			logOf(client, []uint32{1, 2}, []uint32{3}),
			logOf(client, []uint32{1, 2}, []uint32{3}),
			logOf(client, []uint32{1, 2}),
		}
	}
	acked := map[types.NodeID][]uint32{client: {1, 2, 3}}
	if v := checkLogs(clean(), acked); len(v) != 0 {
		t.Fatalf("clean logs reported %v", v)
	}

	// Request 2 committed again in a later block on every node.
	dup := []*commitLog{
		logOf(client, []uint32{1, 2}, []uint32{3, 2}),
		logOf(client, []uint32{1, 2}, []uint32{3, 2}),
		logOf(client, []uint32{1, 2}, []uint32{3, 2}),
	}
	if v := checkLogs(dup, acked); !contains(v, "duplicate commit") {
		t.Errorf("planted duplicate commit not reported: %v", v)
	}

	// Request 4 acknowledged, but committed on one node only.
	lost := clean()
	lost[0] = logOf(client, []uint32{1, 2}, []uint32{3}, []uint32{4})
	if v := checkLogs(lost, map[types.NodeID][]uint32{client: {1, 2, 3, 4}}); !contains(v, "lost acknowledgement") {
		t.Errorf("planted lost acknowledgement not reported: %v", v)
	}

	// Node 1 committed a different block at height 2.
	fork := clean()
	fork[1] = logOf(client, []uint32{1, 2}, []uint32{9})
	if v := checkLogs(fork, map[types.NodeID][]uint32{client: {1, 2}}); !contains(v, "agreement") {
		t.Errorf("planted fork not reported: %v", v)
	}
}

func contains(violations []string, what string) bool {
	for _, v := range violations {
		if strings.Contains(v, what) {
			return true
		}
	}
	return false
}

func TestCompareMarksNoisyPairsUnresolved(t *testing.T) {
	m := endToEnd[0] // commit_p50_ms: lower is better, bound 0.20
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, tc := range []struct {
		name string
		cand []float64
		want string
	}{
		{"same", []float64{1.02, 1.01, 1.03, 1.02}, "unchanged"},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30}, "WORSE"},
		{"faster", []float64{0.70, 0.71, 0.69, 0.70}, "better"},
		{"noisy", []float64{0.6, 1.0, 1.4, 1.02}, "unresolved (spread exceeds bound)"},
	} {
		if got := compareMetric(m, steady, tc.cand).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := endToEnd[1] // goodput_tps: higher is better
	if got := compareMetric(higher, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}).verdict; got != "WORSE" {
		t.Errorf("lower goodput: verdict %q, want WORSE", got)
	}
}

// TestBenchmarkJSONDeclaresWhatTheCodeMeasures keeps BENCHMARK.json at
// the root of the repository in step with the tables in this package.
func TestBenchmarkJSONDeclaresWhatTheCodeMeasures(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the default is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %+v, defined as %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters", w.name, len(w.why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := decl.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end metric %d declared as %+v, defined as %s %s %s %v", i, d, m.name, m.unit, m.better, m.bound)
		}
	}
	if len(decl.PerLayer) != len(layerUnits) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(decl.PerLayer), len(layerUnits))
	}
	for i, lu := range layerUnits {
		if d := decl.PerLayer[i]; d.Name != lu.name || d.Unit != lu.unit {
			t.Errorf("per-layer metric %d declared as %+v, defined as %s %s", i, d, lu.name, lu.unit)
		}
	}
}

// TestSmokeAllWorkloads runs every workload traced with a one-second
// window and checks that the run is correct, that nothing failed, and
// that every declared metric is printed by name with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, 1, 1, true, true, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() || res.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed, violations %v", w.name, res.Failed, res.Attempted, res.Violations)
		}
		var out bytes.Buffer
		printRun(&out, res)
		printed := out.String()
		for _, m := range endToEnd {
			if m.value(res) <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, m.value(res))
			}
			if !hasMetricLine(printed, m.name, m.unit) {
				t.Errorf("%s: %s not printed with unit %s", w.name, m.name, m.unit)
			}
		}
		if !hasMetricLine(printed, "failed_share", "ratio") {
			t.Errorf("%s: failed_share not printed", w.name)
		}
		for _, lu := range layerUnits {
			if !hasMetricLine(printed, lu.name, lu.unit) {
				t.Errorf("%s: %s not printed with unit %s", w.name, lu.name, lu.unit)
			}
		}
		if w.name == "lan3-open-8k" && !strings.Contains(printed, "budget.unattributed_ms") {
			t.Errorf("%s: no latency budget printed", w.name)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
			t.Fatalf("%s: result line: %v", w.name, err)
		}
		if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(layerUnits) {
			t.Errorf("%s: result line %+v", w.name, line)
		}
	}
}

// hasMetricLine reports whether some printed line starts with the
// metric's name and carries its unit after the value.
func hasMetricLine(printed, name, unit string) bool {
	for _, line := range strings.Split(printed, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}
