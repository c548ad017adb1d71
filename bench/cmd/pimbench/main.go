// Command pimbench runs one workload of the repository's benchmark and
// prints its metrics, or compares two sets of recorded runs.
//
//	go run ./bench/cmd/pimbench -workload coexec_saturated -seed 1
//	go run ./bench/cmd/pimbench -workload serve_mixed -trace 1
//	go run ./bench/cmd/pimbench -compare old.jsonl new.jsonl
//	go run ./bench/cmd/pimbench -write-expected
//
// The last line of a run's standard output is the JSON object the
// benchmark contract (BENCHMARK.json) asks for; the lines before it give
// sample counts and quartiles. Run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(bench.Workloads))
		seed     = flag.Int64("seed", bench.DefaultSeed, "input seed; the default also checks bench/expected")
		seconds  = flag.Float64("seconds", 0, "measuring time; the benchmark driver passes run_seconds of BENCHMARK.json, which is also the default")
		trace    = flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
		record   = flag.String("record", "", "append the run's report to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two record files: -compare old new")
		writeExp = flag.Bool("write-expected", false, "rewrite bench/expected from the current simulator")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		return 2
	}
	spec, err := bench.LoadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two record files"))
		}
		olds, err := bench.ReadRecords(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		news, err := bench.ReadRecords(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		rows, worse := bench.Compare(spec, olds, news)
		bench.WriteRows(os.Stdout, rows)
		if worse {
			return 1
		}
		return 0
	case *writeExp:
		if err := bench.WriteExpected(filepath.Join("bench", "expected")); err != nil {
			return fail(err)
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	rep, err := bench.Run(bench.Options{
		Spec: spec, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		OutDir: filepath.Join("bench", "out"),
	})
	if err != nil {
		return fail(err)
	}
	if *record != "" {
		if err := bench.AppendRecord(*record, rep); err != nil {
			return fail(err)
		}
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	line, err := rep.ContractLine()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n%s\n", full, line)
	if !rep.Correct {
		return 1
	}
	return 0
}
