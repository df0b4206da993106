package main

// Steadiness and compare modes. Both read the bounds and directions of
// the end-to-end metrics from BENCHMARK.json and work on result
// directories holding one <workload>.jsonl file per workload, one
// {"seed":N,"result":{...}} line per run.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundOf struct {
	bound  float64 // 0: no bound (per-layer)
	higher bool
}

func readSpec(path string) (*benchSpec, map[string]boundOf, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]boundOf{}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = boundOf{m.Bound, m.Better == "higher"}
	}
	for _, m := range s.PerLayer {
		bounds[m.Name] = boundOf{0, m.Better == "higher"}
	}
	return &s, bounds, nil
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), with the plain median in the middle.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		n, ld := 4, len(s)
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), median(s), q(3)
}

type runRecord struct {
	Seed   int64  `json:"seed"`
	Result result `json:"result"`
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// metricSeries collects each metric's values over runs.
func metricSeries(runs []runRecord) (names []string, vals map[string][]float64) {
	vals = map[string][]float64{}
	for _, r := range runs {
		for name, v := range r.Result.Metrics {
			if _, ok := vals[name]; !ok {
				names = append(names, name)
			}
			vals[name] = append(vals[name], v.Value)
		}
	}
	sort.Strings(names)
	return names, vals
}

// steadyMain runs workloads repeatedly, one seed per run, appends each
// result to DIR/<workload>.jsonl, and prints per metric the median,
// the quartiles, the spread (Q3−Q1)/median against the metric's bound,
// and the gap between the medians of the odd and the even runs.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Float64("seconds", 0, "run length (default: BENCHMARK.json run_seconds)")
	seed0 := fs.Int64("seed", 1, "first seed; run i uses seed+i")
	out := fs.String("out", ".bench_build/steady", "result directory")
	spec := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	fs.Parse(args)
	bs, bounds, err := readSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(bs.RunSeconds)
	}
	names := fs.Args()
	if len(names) == 0 {
		for _, w := range bs.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	status := 0
	for _, w := range names {
		path := filepath.Join(*out, w+".jsonl")
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			return 2
		}
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d failed: %v %v\n", w, seed, err, jerr)
				status = 1
				continue
			}
			rec, _ := json.Marshal(runRecord{Seed: seed, Result: res})
			f.Write(append(rec, '\n'))
		}
		f.Close()
		all, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			return 2
		}
		fmt.Printf("%s: %d runs\n", w, len(all))
		printSteadiness(all, bounds)
	}
	return status
}

func printSteadiness(runs []runRecord, bounds map[string]boundOf) {
	names, vals := metricSeries(runs)
	var failed, attempted []float64
	for _, r := range runs {
		failed = append(failed, float64(r.Result.Failed))
		attempted = append(attempted, float64(r.Result.Attempted))
	}
	fmt.Printf("  %-28s %14s %14s %14s %8s %6s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "halves", "verdict")
	for _, name := range names {
		xs := vals[name]
		q1, med, q3 := quartiles(xs)
		spread := (q3 - q1) / math.Abs(med)
		var odd, even []float64
		for i, x := range xs {
			if i%2 == 0 {
				even = append(even, x)
			} else {
				odd = append(odd, x)
			}
		}
		halves := math.Abs(median(odd)-median(even)) / math.Abs(median(even))
		b := bounds[name]
		verdict := "no bound"
		switch {
		case b.bound == 0:
		case spread < b.bound/3 && halves <= b.bound:
			verdict = "steady"
		case spread <= b.bound && halves <= b.bound:
			verdict = "within bound, above a third of it"
		default:
			verdict = "UNSTEADY"
		}
		fmt.Printf("  %-28s %14.6g %14.6g %14.6g %8.4f %6.3g %8.4f  %s\n", name, med, q1, q3, spread, b.bound, halves, verdict)
	}
	fmt.Printf("  failed/attempted per run: %v / %v\n", failed, attempted)
}

// compareMain reads a parent and a change result directory and prints
// one row per workload: every metric's parent and change medians and
// quartiles and a verdict under the benchmark's bounds.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	spec := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	_, bounds, err := readSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	files, _ := filepath.Glob(filepath.Join(fs.Arg(0), "*.jsonl"))
	sort.Strings(files)
	status := 0
	for _, pf := range files {
		w := strings.TrimSuffix(filepath.Base(pf), ".jsonl")
		parent, err1 := readRuns(pf)
		change, err2 := readRuns(filepath.Join(fs.Arg(1), w+".jsonl"))
		if err1 != nil || err2 != nil || len(parent) == 0 || len(change) == 0 {
			fmt.Printf("%s: missing runs (%d vs %d; %v %v)\n", w, len(parent), len(change), err1, err2)
			status = 1
			continue
		}
		row, regressed := compareRow(parent, change, bounds)
		fmt.Printf("%s (%d vs %d runs): %s\n", w, len(parent), len(change), row)
		if regressed {
			status = 1
		}
	}
	return status
}

func compareRow(parent, change []runRecord, bounds map[string]boundOf) (string, bool) {
	names, pv := metricSeries(parent)
	_, cv := metricSeries(change)
	var cells []string
	regressed := false
	for _, name := range names {
		p1, pm, p3 := quartiles(pv[name])
		c1, cm, c3 := quartiles(cv[name])
		b := bounds[name]
		worse := (cm - pm) / math.Abs(pm) // > 0: change is worse
		if b.higher {
			worse = -worse
		}
		pSpread, cSpread := (p3-p1)/math.Abs(pm), (c3-c1)/math.Abs(cm)
		verdict := ""
		switch {
		case b.bound == 0:
			verdict = fmt.Sprintf("%+.1f%%", -100*worse)
		case pSpread > b.bound || cSpread > b.bound:
			verdict = "unresolved"
		case worse > b.bound:
			verdict = "REGRESSED"
			regressed = true
		case -worse > pSpread && -worse > 0:
			verdict = "better"
		default:
			verdict = "same"
		}
		cells = append(cells, fmt.Sprintf("%s %.4g [%.4g,%.4g] -> %.4g [%.4g,%.4g] %s", name, pm, p1, p3, cm, c1, c3, verdict))
	}
	return strings.Join(cells, " | "), regressed
}
