// Command benchmark is the repository's benchmark: it boots live
// in-process n=3 loopback-TCP clusters from core.New and transport.New,
// drives them with its own load driver, checks that what they committed
// is correct, and prints every metric by name and unit. See README.md.
//
//	bash benchmark/run.sh -seed 1                 all four workloads, untraced
//	bash benchmark/run.sh -seed 1 -trace 1        plus a traced run of each: layers table, budget, spans
//	bash benchmark/run.sh -compare a.json b.json  two result files against the bounds
//	bash benchmark/run.sh --workload lan3-sat --seed 1 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json declares: one workload, and
// one JSON object on the last line of standard output.
package main

import (
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is the measured time of one workload run, the
// run_seconds of BENCHMARK.json: 10 s steady phase, 10 s crash phase.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the one-line JSON result")
		seed    = flag.Int64("seed", 1, "seed of the arrival schedule")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload run")
		trace   = flag.Int("trace", 0, "1: traced runs with the per-layer table, the latency budget and a span file")
		runs    = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "also write the results as JSON to this file")
		workDir = flag.String("workdir", ".bench_build/tmp", "scratch directory for data directories and span files")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, false, *workDir)
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, res)
		if err := writeSpans(res, *workDir); err != nil {
			fatal(err)
		}
		fmt.Println(contractLine(res))
		if !res.correct() {
			os.Exit(1)
		}
	default:
		doc, err := runSuite(*seed, *seconds, *runs, *trace == 1, *workDir)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, doc); err != nil {
				fatal(err)
			}
		}
		if !doc.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
