// Command bench is the repository's benchmark: an HTTP-level closed loop
// against the MDM server with four workloads, five end-to-end metrics and a
// traced per-layer budget. BENCHMARK.json at the root of the repository
// names it; README.md in this directory describes it.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out file]
//	bench -all [-runs n] [-seed n] -out file     every workload, as child processes
//	bench -compare a.json b.json                 judge b against a by the bounds
//	bench -spec                                  print BENCHMARK.json
//
// The last line of standard output of a workload run is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "workload to run: answer-rows, answer-walks, rewrite-miss or evolve")
	seed := flag.Int64("seed", 1, "seed of the input generator")
	seconds := flag.Int("seconds", runSeconds, "length of the timed window of the read workloads")
	trace := flag.Int("trace", 0, "0: report the end-to-end metrics; 1: run the traced pass and report the per-layer metrics")
	out := flag.String("out", "", "write the full result (metrics, host, failures) to this file, and the spans of a traced run to <out>.trace.json")
	scaleName := flag.String("scale", "full", "workload sizes: full (as calibrated) or tiny (smoke test)")
	all := flag.Bool("all", false, "run every workload, end to end and traced, each in a child process")
	runs := flag.Int("runs", 1, "with -all: end-to-end runs per workload, each with the next seed")
	compare := flag.Bool("compare", false, "compare two -all result files given as arguments")
	spec := flag.Bool("spec", false, "print BENCHMARK.json")
	flag.Parse()

	switch {
	case *spec:
		exit(writeSpec(os.Stdout))
	case *compare:
		if flag.NArg() != 2 {
			exit(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exit(err)
		if regressed {
			os.Exit(1)
		}
	case *all:
		if *out == "" {
			exit(fmt.Errorf("-all needs -out"))
		}
		exit(runAll(*out, *scaleName, *seed, *seconds, *runs))
	default:
		sc, ok := scales[*scaleName]
		if !ok {
			exit(fmt.Errorf("unknown scale %q", *scaleName))
		}
		opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, scaleName: *scaleName, scale: sc}
		res, err := runWorkload(opt)
		exit(err)
		for _, msg := range res.Failures {
			fmt.Fprintln(os.Stderr, "bench: failed operation:", msg)
		}
		if *out != "" {
			exit(writeJSONFile(*out, res))
			if res.spans != nil {
				exit(res.spans.write(*out + ".trace.json"))
			}
		}
		exit(json.NewEncoder(os.Stdout).Encode(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics}))
	}
}

// exit ends the process with a message when err is set.
func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
