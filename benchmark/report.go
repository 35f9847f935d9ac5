package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// e2eMetric is one end-to-end metric: what BENCHMARK.json declares and
// -compare holds two result files to. bound is the share of the
// baseline's median by which the metric may get worse.
type e2eMetric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	value  func(*result) float64
}

var endToEnd = []e2eMetric{
	{"commit_p50_ms", "ms", "lower", 0.20, func(r *result) float64 { return r.CommitP50MS }},
	{"goodput_tps", "1/s", "higher", 0.15, func(r *result) float64 { return r.GoodputTPS }},
	{"recovery_s", "s", "lower", 0.20, func(r *result) float64 { return r.RecoveryS }},
	{"setup_s", "s", "lower", 0.25, func(r *result) float64 { return r.SetupS }},
}

// printRun prints one run's metrics by name and unit.
func printRun(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  measured=%gs  %s  injected one-way delay=%gms", r.Workload, r.Seed, r.Seconds, mode, r.DelayMS)
	if r.DelayMS == 0 {
		fmt.Fprint(w, " (latency is processor time only)")
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", m.name, m.value(r), m.unit)
	}
	fmt.Fprintf(w, "  %-16s %12.6f ratio  (%d timed out + %d refused of %d offered)\n",
		"failed_share", r.FailedShare, r.TimedOut, r.Refused, r.Attempted)
	fmt.Fprintf(w, "  client %s = %.3f ms over %d samples; generator lateness p99 = %.3f ms; %d blocks; recovery cycles %.3f s; set-ups %.4f s\n",
		r.TailLabel, r.TailMS, r.LatencyN, r.LatenessP99MS, r.Blocks, r.Recoveries, r.Setups)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	if r.Layers != nil {
		fmt.Fprintln(w, "  layers:")
		for _, lu := range layerUnits {
			fmt.Fprintf(w, "    %-28s %14.4f %s\n", lu.name, r.Layers[lu.name].Value, lu.unit)
		}
	}
	if b := r.Budget; b != nil {
		fmt.Fprintf(w, "  latency budget against commit_p50_ms = %.4f ms:\n", b.CommitP50MS)
		for _, row := range b.Rows {
			fmt.Fprintf(w, "    %-44s %4.1f x %10.3f us = %8.4f ms\n", row.Layer, row.Calls, row.EachUS, row.TotalMS)
		}
		fmt.Fprintf(w, "    %-44s %33.4f ms\n", "budget.attributed_ms", b.AttributedMS)
		fmt.Fprintf(w, "    %-44s %33.4f ms\n", "budget.unattributed_ms", b.UnattributedMS)
		fmt.Fprintf(w, "    %-44s %33.4f ms = %.1f%% of commit_p50_ms\n", "budget.crypto_ms", b.CryptoMS, 100*b.CryptoShare)
	}
}

// contractLine is the one-line result BENCHMARK.json's driver reads:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func contractLine(r *result) string {
	metrics := make(map[string]metric)
	if r.Traced {
		metrics = r.Layers
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metric{Value: m.value(r), Unit: m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// writeSpans writes a traced run's spans, kept in memory until now.
func writeSpans(r *result, workDir string) error {
	if r.spans == nil {
		return nil
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", r.Workload, r.Seed))
	if err := writeJSON(path, r.spans); err != nil {
		return err
	}
	fmt.Printf("  spans: %d requests, %d heights -> %s\n", len(r.spans.Requests), len(r.spans.Heights), path)
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp says what produced a result file, so that two files can be
// told comparable or not.
type stamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Topology   string  `json:"topology"`
	Scheduler  string  `json:"scheduler"`
	Batch      int     `json:"batch"`
	PayloadB   int     `json:"payload_bytes"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
}

func newStamp(seed int64, runs int, seconds float64) stamp {
	s := stamp{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Topology:  fmt.Sprintf("in-process, n=%d f=%d, loopback TCP, one Go runtime", nNodes, fFaults),
		Scheduler: "node default (sched.Sync, pipeline depth 1, ECDSA P-256, no admission control)",
		Batch:     batchSize, PayloadB: payloadSize,
		Seed: seed, Runs: runs, Seconds: seconds,
	}
	// Outside a git checkout (the driver's copy is one) the commit stays
	// unknown.
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(sha))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// document is a result file: what -out writes and -compare reads.
type document struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*result `json:"runs"`
	// TraceOverheadPct is, per workload, how much lower the traced runs'
	// median goodput_tps is than the untraced runs'.
	TraceOverheadPct map[string]float64 `json:"trace.overhead_pct,omitempty"`
}

func (d *document) correct() bool {
	for _, r := range d.Runs {
		if !r.correct() {
			return false
		}
	}
	return true
}

// values returns one metric's values over the untraced (or traced)
// runs of a workload.
func (d *document) values(workload string, traced bool, get func(*result) float64) []float64 {
	var vs []float64
	for _, r := range d.Runs {
		if r.Workload == workload && r.Traced == traced {
			vs = append(vs, get(r))
		}
	}
	return vs
}

// runSuite runs every workload runs times untraced and, when traced is
// set, as many times traced, printing each run as it completes.
func runSuite(seed int64, seconds float64, runs int, traced bool, workDir string) (*document, error) {
	doc := &document{Stamp: newStamp(seed, runs, seconds)}
	fmt.Printf("commit %s  %s  %s  nproc=%d GOMAXPROCS=%d\n%s; %s; batch=%d payload=%dB\n",
		doc.Stamp.Commit, doc.Stamp.Go, doc.Stamp.CPU, doc.Stamp.NProc, doc.Stamp.GOMAXPROCS,
		doc.Stamp.Topology, doc.Stamp.Scheduler, batchSize, payloadSize)
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, w := range workloads {
		for _, mode := range modes {
			for i := 0; i < runs; i++ {
				res, err := runWorkload(w, seed+int64(i), seconds, mode, false, workDir)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				printRun(os.Stdout, res)
				if err := writeSpans(res, workDir); err != nil {
					return nil, err
				}
				doc.Runs = append(doc.Runs, res)
			}
		}
		if traced {
			goodput := func(r *result) float64 { return r.GoodputTPS }
			plain := median(doc.values(w.name, false, goodput))
			if doc.TraceOverheadPct == nil {
				doc.TraceOverheadPct = make(map[string]float64)
			}
			doc.TraceOverheadPct[w.name] = 100 * (plain - median(doc.values(w.name, true, goodput))) / plain
			fmt.Printf("  trace.overhead_pct = %.2f %%  (traced vs untraced median goodput_tps)\n", doc.TraceOverheadPct[w.name])
		}
	}
	return doc, nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(document)
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints, for every end-to-end metric and workload, how
// much worse the second file's median is than the first's, against the
// metric's bound.
func compareFiles(w io.Writer, basePath, candPath string) error {
	base, err := readDocument(basePath)
	if err != nil {
		return err
	}
	cand, err := readDocument(candPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline  %s: commit %s, %s, %s, seed %d x %d runs, %gs\n", basePath, base.Stamp.Commit, base.Stamp.Go, base.Stamp.CPU, base.Stamp.Seed, base.Stamp.Runs, base.Stamp.Seconds)
	fmt.Fprintf(w, "candidate %s: commit %s, %s, %s, seed %d x %d runs, %gs\n", candPath, cand.Stamp.Commit, cand.Stamp.Go, cand.Stamp.CPU, cand.Stamp.Seed, cand.Stamp.Runs, cand.Stamp.Seconds)
	fmt.Fprintf(w, "%-20s %-14s %12s %12s %9s %7s %8s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			c := compareMetric(m, base.values(wl.name, false, m.value), cand.values(wl.name, false, m.value))
			if c.verdict == "" {
				continue
			}
			fmt.Fprintf(w, "%-20s %-14s %12.4f %12.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.name, m.name, c.base, c.cand, 100*c.worse, 100*m.bound, 100*c.spread, c.verdict)
		}
	}
	return nil
}

type comparison struct {
	base, cand float64 // medians
	worse      float64 // share of the baseline median; negative = better
	spread     float64 // widest quartile distance of either side, as a share of its median
	verdict    string  // empty when a side has no runs
}

// compareMetric judges one metric on one workload. A difference inside
// the bound counts as unchanged only when the runs of each side agree
// among themselves more closely than the bound; otherwise the runs
// cannot tell, and the pair is unresolved.
func compareMetric(m e2eMetric, base, cand []float64) comparison {
	var c comparison
	if len(base) == 0 || len(cand) == 0 {
		return c
	}
	c.base, c.cand = median(base), median(cand)
	c.spread = max(iqrShare(base), iqrShare(cand))
	if c.base != 0 {
		c.worse = (c.cand - c.base) / c.base
		if m.better == "higher" {
			c.worse = -c.worse
		}
	}
	switch {
	case c.spread > m.bound:
		c.verdict = "unresolved (spread exceeds bound)"
	case c.worse > m.bound:
		c.verdict = "WORSE"
	case c.worse < -m.bound:
		c.verdict = "better"
	default:
		c.verdict = "unchanged"
	}
	if len(base) < 2 || len(cand) < 2 {
		c.verdict += " (one run a side: spread unknown)"
	}
	return c
}
