package harness

import (
	"fmt"
	"io"

	"achilles/internal/obs"
)

// This file is the trace-breakdown bench behind achilles-bench
// -trace-breakdown: a live loopback cluster run with every trace
// sampled, whose per-node span tracers are harvested into one
// per-stage latency attribution table, plus a critical-path coverage
// check (does propose + quorum-assembly + commit account for the
// measured end-to-end commit latency?) and a sampling-overhead
// comparison (committed throughput at the default 1/64 rate vs with
// tracing disabled).

// TraceStageRow is one span stage's merged attribution across every
// node in the breakdown cluster.
type TraceStageRow struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// TraceOverheadRow is one sampling configuration's measured committed
// throughput, for the tracing-overhead comparison.
type TraceOverheadRow struct {
	Mode        string  `json:"mode"`
	SampleEvery int     `json:"sample_every"`
	TPSk        float64 `json:"tps_k"`
	BlocksPerS  float64 `json:"blocks_per_s"`
}

// TraceBreakdownReport is the full -trace-breakdown result.
type TraceBreakdownReport struct {
	Nodes    int     `json:"nodes"`
	WindowMS float64 `json:"window_ms"`
	// Commits is the number of critical paths harvested from the
	// leaders of the attribution run (sample rate 1: every committed
	// height the proposing leader observed end to end).
	Commits uint64 `json:"commits"`
	// Stages is the per-stage latency table, merged across all nodes.
	Stages []TraceStageRow `json:"stages"`
	// E2EMeanMS/E2EP50MS/E2EP99MS summarize the critical paths' total
	// proposed→committed latency.
	E2EMeanMS float64 `json:"e2e_mean_ms"`
	E2EP50MS  float64 `json:"e2e_p50_ms"`
	E2EP99MS  float64 `json:"e2e_p99_ms"`
	// CriticalMeanMS is the mean of each critical path's stage sum;
	// CoveragePct = CriticalMeanMS / E2EMeanMS * 100. The leader
	// timestamps propose/quorum-assembly/commit so they tile the
	// interval, so anything well under 100 means lost instrumentation.
	CriticalMeanMS float64 `json:"critical_mean_ms"`
	CoveragePct    float64 `json:"coverage_pct"`
	// Overhead compares committed throughput with default sampling vs
	// tracing disabled on otherwise identical clusters.
	Overhead    []TraceOverheadRow `json:"overhead"`
	OverheadPct float64            `json:"overhead_pct"`
}

// TraceBreakdown measures span-stage latency attribution on a live
// n-node loopback cluster. It boots three node-default clusters in
// sequence: one with every trace sampled (the attribution run), one at
// the default 1/64 rate and one with tracing disabled (the overhead
// pair). basePort spaces them apart as in SchedAblation.
func TraceBreakdown(n, basePort int, d Durations) TraceBreakdownReport {
	registerLiveMessages()

	// Attribution run: sample rate 1 so every commit the leader drives
	// produces a critical path and every stage fills its reservoir.
	row, tracers := runSchedConfig(1, n, basePort, d, nil, 1)

	samples := map[string][]float64{}
	counts := map[string]uint64{}
	var crits []obs.CriticalPath
	for _, t := range tracers {
		for stage, vs := range t.StageSamples() {
			samples[stage] = append(samples[stage], vs...)
		}
		for stage, s := range t.StageSummaries() {
			counts[stage] += s.Count
		}
		crits = append(crits, t.Criticals(0)...)
	}

	rep := TraceBreakdownReport{
		Nodes:    n,
		WindowMS: row.WindowMS,
		Commits:  uint64(len(crits)),
	}
	for _, stage := range obs.SpanStages {
		vs := samples[stage]
		if len(vs) == 0 {
			continue
		}
		s := obs.SummarizeFloats(vs)
		rep.Stages = append(rep.Stages, TraceStageRow{
			Stage:  stage,
			Count:  counts[stage],
			MeanMS: s.Mean * 1e3,
			P50MS:  s.P50 * 1e3,
			P99MS:  s.P99 * 1e3,
		})
	}

	totals := make([]float64, 0, len(crits))
	sums := make([]float64, 0, len(crits))
	for _, cp := range crits {
		totals = append(totals, cp.TotalMS)
		var sum float64
		for _, ms := range cp.Stages {
			sum += ms
		}
		sums = append(sums, sum)
	}
	e2e := obs.SummarizeFloats(totals)
	rep.E2EMeanMS = e2e.Mean
	rep.E2EP50MS = e2e.P50
	rep.E2EP99MS = e2e.P99
	rep.CriticalMeanMS = obs.SummarizeFloats(sums).Mean
	if rep.E2EMeanMS > 0 {
		rep.CoveragePct = rep.CriticalMeanMS / rep.E2EMeanMS * 100
	}

	// Overhead pair: default sampling vs disabled on otherwise
	// identical clusters. A process's first clusters measurably
	// underperform its later ones (clock scaling, page/code caches,
	// loopback TCP warm-up), so a single back-to-back pair reports
	// drift as tracing overhead. Run two rounds in opposite order and
	// keep each mode's best window — drift then cancels instead of
	// landing on whichever mode ran first.
	run := func(port, every int) SchedAblationRow {
		row, _ := runSchedConfig(1, n, port, d, nil, every)
		return row
	}
	off1 := run(basePort+100, 0)
	def1 := run(basePort+200, obs.DefSampleEvery)
	def2 := run(basePort+300, obs.DefSampleEvery)
	off2 := run(basePort+400, 0)
	defRow, offRow := def1, off1
	if def2.TPSk > defRow.TPSk {
		defRow = def2
	}
	if off2.TPSk > offRow.TPSk {
		offRow = off2
	}
	rep.Overhead = []TraceOverheadRow{
		{Mode: "sampled", SampleEvery: obs.DefSampleEvery, TPSk: defRow.TPSk, BlocksPerS: defRow.BlocksPerS},
		{Mode: "disabled", SampleEvery: 0, TPSk: offRow.TPSk, BlocksPerS: offRow.BlocksPerS},
	}
	if offRow.TPSk > 0 {
		rep.OverheadPct = (offRow.TPSk - defRow.TPSk) / offRow.TPSk * 100
	}
	return rep
}

// PrintTraceBreakdown renders the breakdown in the same style as the
// other harness tables.
func PrintTraceBreakdown(w io.Writer, title string, rep TraceBreakdownReport) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "n=%d window=%.0fms commits=%d\n", rep.Nodes, rep.WindowMS, rep.Commits)
	for _, s := range rep.Stages {
		fmt.Fprintf(w, "stage=%-14s count=%-6d mean=%8.3fms p50=%8.3fms p99=%8.3fms\n",
			s.Stage, s.Count, s.MeanMS, s.P50MS, s.P99MS)
	}
	fmt.Fprintf(w, "e2e commit latency: mean=%.3fms p50=%.3fms p99=%.3fms\n",
		rep.E2EMeanMS, rep.E2EP50MS, rep.E2EP99MS)
	fmt.Fprintf(w, "critical-path stage sum: mean=%.3fms  coverage=%.1f%% of e2e\n",
		rep.CriticalMeanMS, rep.CoveragePct)
	for _, o := range rep.Overhead {
		fmt.Fprintf(w, "overhead: mode=%-8s sample-every=%-3d tps=%7.2fK blocks/s=%6.1f\n",
			o.Mode, o.SampleEvery, o.TPSk, o.BlocksPerS)
	}
	fmt.Fprintf(w, "sampling overhead at 1/%d: %.1f%% committed throughput vs disabled\n",
		obs.DefSampleEvery, rep.OverheadPct)
}
