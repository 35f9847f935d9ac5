// Command achilles-bench regenerates the tables and figures of the
// Achilles paper's evaluation (Sec. 5) on the deterministic simulator.
//
// Usage:
//
//	achilles-bench -all                # every experiment, full windows
//	achilles-bench -fig 3ab            # Fig. 3a/3b (WAN fault sweep)
//	achilles-bench -fig 4              # Fig. 4 (latency vs throughput)
//	achilles-bench -fig 5              # Fig. 5 (counter-latency sweep)
//	achilles-bench -table 1            # Table 1 ... -table 4
//	achilles-bench -quick -all         # short measurement windows
//	achilles-bench -quick -all -json BENCH_achilles.json
//
// Output is the same rows/series the paper reports: one line per data
// point with protocol, parameters, throughput (K TPS) and latency (ms).
// With -json, every figure/table that ran is additionally written to a
// machine-readable document (throughput, mean/p50/p99 latency and
// message complexity per protocol and data point).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"achilles/internal/harness"
	"achilles/internal/sim"
)

// report is the schema of the -json output document.
type report struct {
	GeneratedBy string                      `json:"generated_by"`
	GeneratedAt string                      `json:"generated_at"`
	Quick       bool                        `json:"quick"`
	Figures     map[string][]harness.ExpRow `json:"figures,omitempty"`
	Table1      []harness.Table1Row         `json:"table1,omitempty"`
	Table2      []harness.Table2Row         `json:"table2,omitempty"`
	Table3      []harness.ExpRow            `json:"table3,omitempty"`
	Table4      []harness.Table4Row         `json:"table4,omitempty"`
	// SchedAblation is a live (non-simulated) experiment: a real
	// loopback TCP cluster measured at each chained-pipelining depth.
	SchedAblation []harness.SchedAblationRow `json:"sched_ablation,omitempty"`
	// OpenLoop is the live open-loop overload measurement (-open-loop):
	// offered vs admitted vs committed rate under a WAN profile, the
	// live analogue of the paper's Fig. 3 WAN row.
	OpenLoop []harness.OpenLoopRow `json:"open_loop,omitempty"`
	// Durability is the live durability bench (-durability): commit
	// throughput per WAL fsync policy against the in-memory baseline,
	// and cold-restart cost from snapshot+suffix vs full WAL replay.
	Durability []harness.DurabilityRow `json:"durability,omitempty"`
	// TraceBreakdown is the live causal-tracing bench
	// (-trace-breakdown): per-stage latency attribution merged across
	// all nodes, critical-path coverage of end-to-end commit latency,
	// and the throughput cost of default sampling vs tracing disabled.
	TraceBreakdown *harness.TraceBreakdownReport `json:"trace_breakdown,omitempty"`
	// Reconfig is the live chain-driven reconfiguration bench
	// (-reconfig): epoch-activation latency (submit → cluster-wide
	// activation at h+Δ) and the committed-throughput dip across the
	// reconfiguration window, per successive key rotation.
	Reconfig []harness.ReconfigRow `json:"reconfig,omitempty"`
}

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 3ab|3cd|3ef|3gh|3ij|3kl|4|5")
		table    = flag.Int("table", 0, "table to regenerate: 1|2|3|4")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "short measurement windows")
		faults   = flag.String("faults", "1,2,4,10,20,30", "comma-separated f values for Fig. 3a-3d")
		jsonPath = flag.String("json", "", "also write the results of everything that ran as JSON to this path (e.g. BENCH_achilles.json)")
		ablation = flag.Bool("sched-ablation", false, "measure a live loopback TCP cluster at chained-pipelining depths 1/2/4/8")
		openLoop = flag.Bool("open-loop", false, "measure open-loop overload on a live loopback cluster behind a WAN profile: offered vs admitted vs committed rate at multiples of saturation")
		olSess   = flag.Int("ol-sessions", 10000, "open-loop client-session population (-open-loop)")
		olConns  = flag.Int("ol-conns", 16, "open-loop generator connection-pool size (-open-loop)")
		olLAN    = flag.Bool("ol-lan", false, "run -open-loop without the WAN latency profile")
		durab    = flag.Bool("durability", false, "measure commit throughput per WAL fsync policy and cold-restart cost (snapshot+suffix vs full replay) on a live loopback cluster")
		traceBD  = flag.Bool("trace-breakdown", false, "measure per-stage span latency attribution, critical-path coverage of e2e commit latency and sampling overhead on a live loopback cluster")
		reconfig = flag.Bool("reconfig", false, "measure chain-driven key-rotation epoch activation latency and the throughput dip across the reconfiguration window on a live loopback cluster")
		rcRounds = flag.Int("reconfig-rotations", 3, "successive key rotations to measure (-reconfig)")
	)
	flag.Parse()

	d := harness.StandardDurations()
	if *quick {
		d = harness.QuickDurations()
	}
	fs, err := parseInts(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "achilles-bench: bad -faults: %v\n", err)
		os.Exit(2)
	}

	rep := report{
		GeneratedBy: "achilles-bench",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:       *quick,
		Figures:     map[string][]harness.ExpRow{},
	}

	ran := false
	runFig := func(name string) {
		ran = true
		var title string
		var rows []harness.ExpRow
		switch name {
		case "3ab":
			title = "Fig. 3a/3b — WAN, batch 400, payload 256 B, varying f"
			rows = harness.Fig3Faults(sim.WANModel(), fs, d)
		case "3cd":
			title = "Fig. 3c/3d — LAN, batch 400, payload 256 B, varying f"
			rows = harness.Fig3Faults(sim.LANModel(), fs, d)
		case "3ef":
			title = "Fig. 3e/3f — WAN, f=10, batch 400, varying payload"
			rows = harness.Fig3Payload(sim.WANModel(), []int{0, 256, 512}, d)
		case "3gh":
			title = "Fig. 3g/3h — LAN, f=10, batch 400, varying payload"
			rows = harness.Fig3Payload(sim.LANModel(), []int{0, 256, 512}, d)
		case "3ij":
			title = "Fig. 3i/3j — WAN, f=10, payload 256 B, varying batch"
			rows = harness.Fig3Batch(sim.WANModel(), []int{200, 400, 600}, d)
		case "3kl":
			title = "Fig. 3k/3l — LAN, f=10, payload 256 B, varying batch"
			rows = harness.Fig3Batch(sim.LANModel(), []int{200, 400, 600}, d)
		case "4":
			title = "Fig. 4 — LAN, f=10: e2e latency vs achieved throughput under increasing offered load"
			offered := []float64{1000, 2000, 4000, 8000, 16000, 32000, 64000}
			for _, p := range []harness.ProtocolKind{harness.Achilles, harness.DamysusR, harness.FlexiBFT, harness.OneShotR} {
				rows = append(rows, harness.Fig4LoadSweep(p, offered, d)...)
			}
		case "5":
			title = "Fig. 5 — LAN, f=10: baselines vs counter write latency"
			rows = harness.Fig5CounterSweep([]int{0, 10, 20, 40, 80}, d)
		default:
			fmt.Fprintf(os.Stderr, "achilles-bench: unknown figure %q\n", name)
			os.Exit(2)
		}
		harness.PrintRows(os.Stdout, title, rows)
		rep.Figures[name] = rows
	}
	runTable := func(n int) {
		ran = true
		switch n {
		case 1:
			fmt.Println("== Table 1 — protocol comparison (static design + measured message complexity) ==")
			rep.Table1 = harness.Table1(d)
			for _, r := range rep.Table1 {
				fmt.Printf("%-10s threshold=%-5s rollbackRes=%-5v counters=%-7s complexity=%-6s steps=%-7s replyRes=%-5v msgs/block@f=2: %6.1f  @f=4: %6.1f\n",
					r.Protocol, r.Threshold, r.RollbackRes, r.Counters, r.Complexity, r.Steps, r.ReplyRes, r.MsgsAtF2, r.MsgsAtF4)
			}
		case 2:
			fmt.Println("== Table 2 — recovery overhead breakdown in LAN ==")
			rows := harness.Table2Recovery([]int{3, 5, 9, 21, 41, 61}, d)
			rep.Table2 = rows
			fmt.Printf("%-16s", "Nodes")
			for _, r := range rows {
				fmt.Printf("%8d", r.Nodes)
			}
			fmt.Printf("\n%-16s", "Initialization")
			for _, r := range rows {
				fmt.Printf("%8.2f", r.InitMS)
			}
			fmt.Printf("\n%-16s", "Recovery")
			for _, r := range rows {
				fmt.Printf("%8.2f", r.RecoveryMS)
			}
			fmt.Printf("\n%-16s", "Total")
			for _, r := range rows {
				fmt.Printf("%8.2f", r.TotalMS)
			}
			fmt.Println()
		case 3:
			rep.Table3 = harness.Table3Overhead([]int{2, 4, 10}, d)
			harness.PrintRows(os.Stdout, "Table 3 — overhead profiling in LAN (Achilles vs Achilles-C vs BRaft)", rep.Table3)
		case 4:
			fmt.Println("== Table 4 — persistent counter write/read latency (ms) ==")
			rep.Table4 = harness.Table4Counters()
			for _, r := range rep.Table4 {
				fmt.Printf("%-14s write=%6.1f read=%6.1f\n", r.Name, r.WriteMS, r.ReadMS)
			}
		default:
			fmt.Fprintf(os.Stderr, "achilles-bench: unknown table %d\n", n)
			os.Exit(2)
		}
	}

	switch {
	case *all:
		for _, f := range []string{"3ab", "3cd", "3ef", "3gh", "3ij", "3kl", "4", "5"} {
			runFig(f)
		}
		for _, t := range []int{1, 2, 3, 4} {
			runTable(t)
		}
	case *fig != "":
		runFig(strings.ToLower(*fig))
	case *table != 0:
		runTable(*table)
	}
	if *ablation {
		ran = true
		rows := harness.SchedAblation(5, 24871, d)
		harness.PrintSchedRows(os.Stdout,
			"Pipeline-depth ablation — live loopback TCP, n=5, ECDSA, saturated synthetic load", rows)
		rep.SchedAblation = rows
	}
	if *openLoop {
		ran = true
		rows := harness.OpenLoopLive(harness.OpenLoopConfig{
			Sessions: *olSess,
			Conns:    *olConns,
			WAN:      !*olLAN,
		}, d)
		harness.PrintOpenLoopRows(os.Stdout,
			"Open-loop overload — live loopback TCP, n=3, mempool admission control", rows)
		rep.OpenLoop = rows
	}
	if *durab {
		ran = true
		rows := harness.DurabilityBench(0, d)
		harness.PrintDurabilityRows(os.Stdout,
			"Durability — live loopback TCP, n=3, saturated synthetic load, WAL fsync policies and cold-restart cost", rows)
		rep.Durability = rows
	}
	if *traceBD {
		ran = true
		bd := harness.TraceBreakdown(3, 26371, d)
		harness.PrintTraceBreakdown(os.Stdout,
			"Trace breakdown — live loopback TCP, n=3, every trace sampled", bd)
		rep.TraceBreakdown = &bd
	}
	if *reconfig {
		ran = true
		rows := harness.ReconfigBench(3, 26571, *rcRounds, d)
		harness.PrintReconfigRows(os.Stdout,
			"Reconfiguration — live loopback TCP, n=3, chain-driven key rotations under saturated synthetic load", rows)
		rep.Reconfig = rows
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	if *jsonPath != "" {
		// Merge-on-write: sections that ran replace their keys in an
		// existing document, sections that did not are preserved — so a
		// -durability-only run extends BENCH_achilles.json instead of
		// discarding every previously generated figure.
		doc := map[string]json.RawMessage{}
		if old, err := os.ReadFile(*jsonPath); err == nil {
			if err := json.Unmarshal(old, &doc); err != nil {
				fmt.Fprintf(os.Stderr, "achilles-bench: existing %s is not JSON (%v); refusing to overwrite\n", *jsonPath, err)
				os.Exit(1)
			}
		}
		fresh, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "achilles-bench: marshal: %v\n", err)
			os.Exit(1)
		}
		var freshDoc map[string]json.RawMessage
		json.Unmarshal(fresh, &freshDoc)
		for k, v := range freshDoc {
			doc[k] = v
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "achilles-bench: marshal: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "achilles-bench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
