// Command perfbench is the repository's end-to-end benchmark of the HMMM
// query path: it generates seeded inputs, boots the program the way
// cmd/hmmmd and cmd/hmmm-shardd boot it, drives it over loopback HTTP,
// checks every answer against references computed here, and prints the
// metrics named in BENCHMARK.json.
//
//	perfbench --workload paper-serve --seed 1 --seconds 15 --trace 0
//	perfbench steady --workload paper-serve --runs 10 [--other <binary>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run replays the workload's
// requests layer by layer and reports the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func findSpec(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 25, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		scale    = flag.Float64("rate-scale", 1, "multiply the open-loop query, federated and burst rates (for reference sweeps; reported figures use 1)")
	)
	flag.Parse()
	sp := findSpec(*workload)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *scale <= 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	scaled := *sp
	scaled.queryRate *= *scale
	scaled.fedRate *= *scale
	scaled.burstRate *= *scale
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d rate-scale=%g nproc=%d GOMAXPROCS=%d\n",
		sp.name, *seed, *seconds, *trace, *scale, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := run(&scaled, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
