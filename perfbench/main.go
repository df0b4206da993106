// Command perfbench is the repository's benchmark. It starts the served
// stack (engine, rgserve's server, and for one workload rgrouter's
// router) in-process on loopback, drives it with inputs generated from a
// seed, checks every answer against its own oracle, and prints one JSON
// result line:
//
//	perfbench --workload point-serve --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run that
// measures for --seconds; --trace 1 runs the same inputs through each
// layer's public functions with spans and counters kept in memory, and
// reports the per-layer metrics (a fixed amount of work).
//
//	perfbench steady  [-runs N] [-seconds S] [-out DIR] [workload...]
//	perfbench compare PARENT_DIR CHANGE_DIR
//
// steady runs workloads repeatedly on distinct seeds and reports each
// metric's median, quartiles and spread against its bound in
// BENCHMARK.json; compare reads two such result directories and gives a
// verdict per workload and metric. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"batch_qps", "queries/s"},
	{"cpu_us_per_query", "us"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"commits_per_s", "commits/s"},
	{"cpu_ms_per_commit", "ms"},
	{"recover_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "point-serve", "workload: point-serve, closure-serve or write-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measurement time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Parse(os.Args[1:])

	cfg, err := workloadByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runWorkload(cfg, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	js, _ := json.Marshal(res)
	fmt.Println(string(js))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload and shapes its result line.
func runWorkload(cfg *config, seed int64, seconds float64, traced bool) (*result, error) {
	t0 := time.Now()
	var rn *run
	var defs []metricDef
	var err error
	if traced {
		rn, err = runTraced(cfg, seed)
		defs = perLayer
	} else {
		rn, err = runE2E(cfg, seed, seconds)
		defs = endToEnd
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v: %.1fs\n", cfg.name, seed, traced, time.Since(t0).Seconds())
	res := &result{Correct: err == nil, Attempted: rn.attempted, Failed: rn.failed, Metrics: map[string]metricValue{}}
	if err != nil {
		return res, err
	}
	for _, d := range defs {
		v, ok := rn.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}
