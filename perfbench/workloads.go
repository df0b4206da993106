package main

// The three workloads and their untraced, end-to-end runs.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/wire"
)

// config describes one workload.
type config struct {
	name     string
	graph    func(seed int64) *graph.Graph
	backend  string // the backend kind the engine must end up with
	auto     bool   // let the engine choose within budget (else build backend)
	budget   int64  // AutoBackend memory budget; 0 means the engine default
	routed   bool   // reads go through the router
	chunk    int    // ops per committed generation (the server's MutateBatch)
	pool     func(m *model, r *rand.Rand) []*query
	script   func(m *model, r *rand.Rand) []mop // advances m to the final state
	beside   float64                            // reads/s beside writes; 0 for the read workloads
	standing func(m *model, r *rand.Rand) *pq   // standing PQ subscribed during writes
	setups   int                                // set-ups per run (the median is reported)
}

// Read workloads warm up for warmup, then spend batchShare of the
// remaining time in the batch phase and the rest interactively.
const (
	warmup     = time.Second
	batchShare = 0.45
)

func (c *config) engineOpts() engine.Options {
	if c.auto {
		return engine.Options{AutoBackend: true, MemoryBudget: c.budget}
	}
	return engine.Options{BackendKind: c.backend}
}

// youTubeSeed fixes the YouTube-shaped graph: like the paper's one
// crawl, it is a single dataset, and the run's seed draws the queries
// and the op script on it. The graph's structure then adds no
// seed-to-seed spread to set-up and backend rebuild times.
const youTubeSeed = 1

// workloads returns the benchmark's workloads at full size, or at a
// tiny size for the smoke test.
func workloads(tiny bool) []*config {
	ytPoint, ytFull, synthNodes, synthEdges := 0.25, 1.0, 2000, 8000
	pointN, closureRQ, closurePQ, mixN := 8192, 768, 256, 2048
	var budget int64
	if tiny {
		ytPoint, ytFull, synthNodes, synthEdges = 0.02, 0.05, 200, 800
		pointN, closureRQ, closurePQ, mixN = 64, 12, 4, 24
		budget = 1 << 20 // small enough that the matrix does not fit
	}
	return []*config{
		{
			name:    "point-serve",
			graph:   func(int64) *graph.Graph { return gen.YouTube(youTubeSeed, ytPoint) },
			backend: "matrix",
			chunk:   16,
			pool:    func(m *model, r *rand.Rand) []*query { return pointPool(m, pointN, r) },
			script: func(m *model, r *rand.Rand) []mop {
				return freshScript(m, 12, 16, r)
			},
			setups: 15,
		},
		{
			name:    "closure-serve",
			graph:   func(int64) *graph.Graph { return gen.YouTube(youTubeSeed, ytFull) },
			backend: "twohop",
			auto:    true,
			budget:  budget,
			routed:  true,
			chunk:   16,
			pool: func(m *model, r *rand.Rand) []*query {
				return closurePool(m, closureRQ, closurePQ, r)
			},
			script: func(m *model, r *rand.Rand) []mop {
				return freshScript(m, 6, 16, r)
			},
			setups: 5,
		},
		{
			name: "write-mix",
			graph: func(seed int64) *graph.Graph {
				return gen.Synthetic(seed, synthNodes, synthEdges, 3, gen.DefaultColors)
			},
			backend: "matrix",
			chunk:   32,
			pool:    func(m *model, r *rand.Rand) []*query { return mixPool(m, mixN, r) },
			script: func(m *model, r *rand.Rand) []mop {
				return mixScript(m, 16*32, r)
			},
			beside: 300,
			standing: func(m *model, r *rand.Rand) *pq {
				for {
					if q := patternQuery(m, r, synthPred); q != nil {
						return q
					}
				}
			},
			setups: 3,
		},
	}
}

func workloadByName(name string) (*config, error) {
	for _, c := range workloads(false) {
		if c.name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run derives from its seed before the stack
// starts.
type inputs struct {
	seed   int64
	m0, mW *model   // the model before and after the write script
	pool   []*query // reads, answers on m0
	poolW  []*query // the same reads, answers on mW
	beside []*query // the pool's single-atom RQs: write-mix's reads beside writes
	// besideByGen[g] is beside answered on generation g's model: the
	// model before the script, then after each of its chunks.
	besideByGen [][]*query
	script      []mop
	commits     int
	standing    *pq
	wantPQ      digest // the standing query's answer on mW
}

func makeInputs(cfg *config, seed int64) *inputs {
	t0 := time.Now()
	r := rand.New(rand.NewSource(seed*7919 + 1))
	in := &inputs{seed: seed}
	in.m0 = modelOf(cfg.graph(seed))
	in.pool = cfg.pool(in.m0, r)
	for _, q := range in.pool {
		q.render()
	}
	check(in.m0, in.pool)
	for _, q := range in.pool {
		if q.rq != nil && len(q.rq.atoms) == 1 {
			in.beside = append(in.beside, q)
		}
	}
	in.mW = in.m0.clone()
	in.script = cfg.script(in.mW, r)
	in.commits = (len(in.script) + cfg.chunk - 1) / cfg.chunk
	if cfg.beside > 0 {
		if in.commits >= 64 {
			panic("perfbench: checker.gens holds at most 64 generations")
		}
		in.besideByGen = answersByGen(in.m0, in.beside, in.script, cfg.chunk)
	}
	// Every workload reads the whole pool on the final generation.
	in.poolW = make([]*query, len(in.pool))
	for i, q := range in.pool {
		c := *q
		in.poolW[i] = &c
	}
	check(in.mW, in.poolW)
	if cfg.standing != nil {
		in.standing = cfg.standing(in.m0, r)
		in.wantPQ = digestPQ(in.mW.answerPQ(in.standing))
	}
	med, p90 := answerSizes(in.pool)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d nodes, %d edges; %d reads (answer pairs: median %d, p90 %d; %d distinct predicates); %d ops in %d commits; inputs in %.1fs\n",
		cfg.name, in.m0.numNodes(), in.m0.edges, len(in.pool), med, p90, distinctPreds(in.pool), len(in.script), in.commits, time.Since(t0).Seconds())
	return in
}

// answersByGen answers qs on each generation's model: m0 (on which qs
// are already answered), then m0 after each chunk of the script.
func answersByGen(m0 *model, qs []*query, script []mop, chunk int) [][]*query {
	m := m0.clone()
	out := [][]*query{qs}
	for lo := 0; lo < len(script); lo += chunk {
		for i := lo; i < min(len(script), lo+chunk); i++ {
			m.apply(&script[i])
		}
		gq := make([]*query, len(qs))
		for i, q := range qs {
			c := *q
			gq[i] = &c
		}
		check(m, gq)
		out = append(out, gq)
	}
	return out
}

// recoveredChecks is how many pool queries are checked on a recovered
// engine.
const recoveredChecks = 32

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// verdict moves a checker's failed responses into the run's tally
// (once) and reports any failure or wrong answer.
func (rn *run) verdict(c *checker) error {
	c.mu.Lock()
	rn.failed += c.failed
	c.failed = 0
	c.mu.Unlock()
	return c.err()
}

// run carries one run's tallies.
type run struct {
	cfg       *config
	in        *inputs
	hc        *http.Client
	attempted int
	failed    int
	metrics   map[string]float64
}

// setup starts the stack reps times (the last one is kept) and records
// the median set-up time and the kept stack's live heap.
func (rn *run) setup(reps int) (*stack, error) {
	var times []float64
	var st *stack
	for i := 0; i < reps; i++ {
		base := liveHeap()
		t0 := time.Now()
		s, err := startStack(rn.cfg, rn.in.seed)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		st = s
		rn.metrics["heap_mb"] = float64(int64(liveHeap())-int64(base)) / (1 << 20)
	}
	rn.metrics["setup_s"] = median(times)
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups: %.3v s\n", reps, times)
	return st, nil
}

// batchPhase repeats whole rounds of the pool until the deadline (at
// least minRounds) and records the median round throughput and CPU per
// query.
func (rn *run) batchPhase(ctx context.Context, url string, c *checker, until time.Time, minRounds int) error {
	var qps, cpu []float64
	for len(qps) < minRounds || time.Now().Before(until) {
		c0 := cpuTime()
		d, err := batchRound(ctx, rn.hc, url, c, 0, len(c.pool))
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		rn.attempted += len(c.pool)
		qps = append(qps, float64(len(c.pool))/d.Seconds())
		cpu = append(cpu, float64((cpuTime()-c0).Microseconds())/float64(len(c.pool)))
	}
	rn.metrics["batch_qps"] = median(qps)
	rn.metrics["cpu_us_per_query"] = median(cpu)
	return rn.verdict(c)
}

// writePhase streams the op script to /v1/mutate (the server commits
// one generation per chunk) and checks the acks and the summary
// against the model. A commit's acks arrive together, so the arrival of
// a new generation's first ack marks the previous commit's end; the
// phase returns each commit's wall time and process CPU time. It calls
// committed, when not nil, with each generation as its first ack
// arrives, by which time the generation is published.
func (rn *run) writePhase(st *stack, committed func(gen uint64)) (wall, cpu []time.Duration, err error) {
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriter(pw)
		for i := range rn.in.script {
			bw.Write(rn.in.script[i].line())
		}
		bw.Flush()
		pw.Close()
	}()
	var acks int
	var sum struct {
		Kind    string `json:"kind"`
		Gen     uint64 `json:"gen"`
		Applied int    `json:"applied"`
		Failed  int    `json:"failed"`
		Nodes   int    `json:"nodes"`
		Edges   int    `json:"edges"`
		Err     string `json:"error"`
	}
	var bad error
	lastGen := uint64(0)
	c0, t0 := cpuTime(), time.Now()
	err = wire.PostLines(st.srvURL+"/v1/mutate", pr, func(line []byte) error {
		var a struct {
			Kind string `json:"kind"`
			Gen  uint64 `json:"gen"`
			Err  string `json:"error"`
		}
		if err := json.Unmarshal(line, &a); err != nil {
			return err
		}
		if a.Kind == "summary" {
			return json.Unmarshal(line, &sum)
		}
		acks++
		if a.Err != "" || a.Gen == 0 {
			rn.failed++
			if bad == nil {
				bad = fmt.Errorf("op failed: %s", line)
			}
		}
		if a.Gen != lastGen {
			c1, t1 := cpuTime(), time.Now()
			wall, cpu = append(wall, t1.Sub(t0)), append(cpu, c1-c0)
			c0, t0, lastGen = c1, t1, a.Gen
			if committed != nil {
				committed(a.Gen)
			}
		}
		return nil
	})
	rn.attempted += len(rn.in.script)
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("mutate: %w", err)
	case bad != nil:
		return nil, nil, bad
	case sum.Kind != "summary" || sum.Err != "":
		return nil, nil, fmt.Errorf("mutate summary: %+v", sum)
	case acks != len(rn.in.script) || sum.Applied != len(rn.in.script) || sum.Failed != 0:
		return nil, nil, fmt.Errorf("mutate: %d acks, summary applied %d failed %d, script has %d ops", acks, sum.Applied, sum.Failed, len(rn.in.script))
	case sum.Nodes != rn.in.mW.numNodes() || sum.Edges != rn.in.mW.edges:
		return nil, nil, fmt.Errorf("mutate summary: %d nodes %d edges, model has %d nodes %d edges", sum.Nodes, sum.Edges, rn.in.mW.numNodes(), rn.in.mW.edges)
	case len(wall) != rn.in.commits || sum.Gen != uint64(rn.in.commits):
		return nil, nil, fmt.Errorf("mutate: %d generations up to %d, want %d", len(wall), sum.Gen, rn.in.commits)
	}
	return wall, cpu, nil
}

// commitMetrics records commit throughput and CPU per commit from
// per-commit samples, as medians.
func (rn *run) commitMetrics(wall, cpu []time.Duration) {
	var w, c []float64
	for i := range wall {
		w = append(w, wall[i].Seconds())
		c = append(c, float64(cpu[i].Microseconds())/1e3)
	}
	rn.metrics["commits_per_s"] = 1 / median(w)
	rn.metrics["cpu_ms_per_commit"] = median(c)
}

// recoverPhase recovers an engine from a copy of the stack's WAL and
// the seed graph, as a restarted rgserve does, and checks the recovered
// generation and answers. It runs after the write phase, when every
// commit is on disk, and the stack may go on serving meanwhile.
func (rn *run) recoverPhase(st *stack) (time.Duration, error) {
	dir, err := os.MkdirTemp(tmpRoot(), "recover-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if err := os.CopyFS(dir, os.DirFS(st.walDir)); err != nil {
		return 0, fmt.Errorf("copy WAL: %w", err)
	}
	seedGraph := rn.cfg.graph(rn.in.seed)
	// Every recovery starts from the same heap: dead backends and an
	// earlier recovered engine are collected first.
	runtime.GC()
	t0 := time.Now()
	e, w, err := recoverEngine(rn.cfg, dir, seedGraph)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	defer w.Close()
	if g := e.Generation(); g != uint64(rn.in.commits) {
		return 0, fmt.Errorf("recovered generation %d, want %d", g, rn.in.commits)
	}
	n := min(len(rn.in.poolW), recoveredChecks)
	if err := checkEngine(e, rn.in.poolW[:n]); err != nil {
		return 0, fmt.Errorf("recovered engine: %w", err)
	}
	rn.attempted += n
	return d, nil
}

// checkEngine runs queries in-process and compares them with their
// oracle answers.
func checkEngine(e *engine.Engine, qs []*query) error {
	reqs, err := compilePool(qs)
	if err != nil {
		return err
	}
	for i, res := range e.RunBatch(reqs) {
		if res.Err != nil {
			return fmt.Errorf("query %d: %w", i, res.Err)
		}
		if got := resultDigest(res); got.count != qs[i].want.count || (!qs[i].count && got != qs[i].want) {
			return fmt.Errorf("query %d: %d pairs, oracle %d: %s", i, got.count, qs[i].want.count, qs[i].body)
		}
	}
	return nil
}

func resultDigest(res engine.Result) digest {
	var d digest
	if res.Match != nil {
		if res.Match.Empty() {
			return d
		}
		for i := range res.Match.Sets {
			for _, p := range res.Match.EdgePairs(i) {
				d.add(i, int64(p.From), int64(p.To))
			}
		}
		return d
	}
	for _, p := range res.Pairs {
		d.add(0, int64(p.From), int64(p.To))
	}
	return d
}

// runE2E is the untraced run of one workload: every end-to-end metric.
func runE2E(cfg *config, seed int64, seconds float64) (*run, error) {
	rn := &run{cfg: cfg, in: makeInputs(cfg, seed), hc: newHTTPClient(), metrics: map[string]float64{}}
	defer rn.hc.CloseIdleConnections()
	if cfg.beside > 0 {
		return rn, rn.writeMixRounds(seconds)
	}
	return rn, rn.readWorkload(seconds)
}

// readWorkload sets up, warms up, commits the write script, and then
// takes its recovery samples between the timed read phases, which read
// the final generation. Spreading the recoveries over the run, rather
// than taking them back to back at its end, keeps one slow spell of the
// machine from setting recover_s.
func (rn *run) readWorkload(seconds float64) error {
	ctx := context.Background()
	st, err := rn.setup(rn.cfg.setups)
	if err != nil {
		return err
	}
	defer st.close()
	url := st.url + "/v1/query"
	if _, err := rn.warm(ctx, url, &checker{pool: rn.in.pool}, time.Now().Add(warmup)); err != nil {
		return err
	}

	rn.hc.CloseIdleConnections()
	wall, cpu, err := rn.writePhase(st, nil)
	if err != nil {
		return err
	}
	rn.commitMetrics(wall, cpu)
	rn.hc.CloseIdleConnections()
	// The commits leave one dead backend each; collect them before the
	// timed reads.
	runtime.GC()

	// One recovery goes before, one between and one after the read
	// phases.
	var recov []float64
	recoverOnce := func() error {
		d, err := rn.recoverPhase(st)
		if err != nil {
			return err
		}
		recov = append(recov, d.Seconds())
		// The read phase after it does not pay for the recovered engine.
		runtime.GC()
		return nil
	}
	measure := time.Duration(seconds*float64(time.Second)) - warmup
	c := &checker{pool: rn.in.poolW}
	if err := recoverOnce(); err != nil {
		return err
	}
	batchEnd := time.Now().Add(time.Duration(float64(measure) * batchShare))
	if err := rn.batchPhase(ctx, url, c, batchEnd, 3); err != nil {
		return err
	}
	if err := recoverOnce(); err != nil {
		return err
	}
	end := time.Now().Add(time.Duration(float64(measure) * (1 - batchShare)))
	lat, n, err := interactive(ctx, rn.hc, url, c, end)
	rn.attempted += n
	if err != nil {
		return fmt.Errorf("interactive: %w", err)
	}
	if err := rn.verdict(c); err != nil {
		return err
	}
	rn.metrics["query_p50_ms"] = ms(quantile(lat, 0.50))
	rn.metrics["query_p90_ms"] = ms(quantile(lat, 0.90))
	rn.hc.CloseIdleConnections()
	if err := recoverOnce(); err != nil {
		return err
	}
	rn.metrics["recover_s"] = median(recov)
	return nil
}

// warm runs untimed batch rounds until the deadline, so the timed
// phases start with warm caches, a grown heap and a settled scheduler.
func (rn *run) warm(ctx context.Context, url string, c *checker, until time.Time) (int, error) {
	rounds := 0
	for rounds == 0 || time.Now().Before(until) {
		if _, err := batchRound(ctx, rn.hc, url, c, 0, len(c.pool)); err != nil {
			return rounds, fmt.Errorf("warm-up: %w", err)
		}
		rn.attempted += len(c.pool)
		rounds++
	}
	return rounds, rn.verdict(c)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeMixRounds runs whole rounds of write-mix until the time is
// used: set-up, the op script with reads beside it and a standing PQ,
// batch reads on the final generation, then recovery.
func (rn *run) writeMixRounds(seconds float64) error {
	ctx := context.Background()
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var setups, qps, cpuQ, recov []float64
	var lat, commitWall, commitCPU []time.Duration
	var heap float64
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		rn.metrics = map[string]float64{}
		reps := 1
		if round == 0 {
			reps = rn.cfg.setups
		}
		st, err := rn.setup(reps)
		if err != nil {
			return err
		}
		setups = append(setups, rn.metrics["setup_s"])
		if round == 0 {
			heap = rn.metrics["heap_mb"]
		}
		r, err := rn.writeMixRound(ctx, st)
		st.close()
		if err != nil {
			return err
		}
		lat = append(lat, r.lat...)
		commitWall, commitCPU = append(commitWall, r.wall...), append(commitCPU, r.cpu...)
		qps = append(qps, rn.metrics["batch_qps"])
		cpuQ = append(cpuQ, rn.metrics["cpu_us_per_query"])
		recov = append(recov, rn.metrics["recover_s"])
	}
	rn.metrics = map[string]float64{
		"setup_s":          median(setups),
		"heap_mb":          heap,
		"batch_qps":        median(qps),
		"cpu_us_per_query": median(cpuQ),
		"query_p50_ms":     ms(quantile(lat, 0.50)),
		"query_p90_ms":     ms(quantile(lat, 0.90)),
		"recover_s":        median(recov),
	}
	rn.commitMetrics(commitWall, commitCPU)
	return nil
}

// roundSamples are one write-mix round's latency and commit samples.
type roundSamples struct {
	lat, wall, cpu []time.Duration
}

// writeMixRound is one round on a fresh stack.
func (rn *run) writeMixRound(ctx context.Context, st *stack) (*roundSamples, error) {
	sq, err := st.eng.Subscribe(compilePQ(rn.in.standing), rn.in.commits+1)
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	defer sq.Close()

	url := st.url + "/v1/query"
	stop := make(chan struct{})
	// Each commit moves the reads to a new stream, so they read every
	// generation the script produces.
	reopen := make(chan uint64, rn.in.commits)
	type olResult struct {
		lat      []time.Duration
		sent     int
		checkers []*checker
		err      error
	}
	olDone := make(chan olResult, 1)
	ready := make(chan struct{})
	go func() {
		lat, sent, lag, cs, err := openLoop(ctx, rn.hc, url, rn.in.besideByGen, rn.cfg.beside, reopen, stop, ready)
		fmt.Fprintf(os.Stderr, "perfbench: reads beside writes: %d sent on %d streams, sender at most %v late\n", sent, len(cs), lag.Round(time.Microsecond))
		olDone <- olResult{lat, sent, cs, err}
	}()
	<-ready // the first read stream is open before any commit
	wall, cpu, werr := rn.writePhase(st, func(gen uint64) { reopen <- gen })
	close(stop)
	ol := <-olDone
	rn.attempted += ol.sent
	if werr != nil {
		return nil, werr
	}
	if ol.err != nil {
		return nil, fmt.Errorf("reads beside writes: %w", ol.err)
	}
	for _, c := range ol.checkers {
		if err := rn.verdict(c); err != nil {
			return nil, fmt.Errorf("reads beside writes: %w", err)
		}
	}
	// Apply has returned for every commit, so every update is queued.
	sq.Close()
	_, last := sq.Init()
	for u := range sq.Updates() {
		last = u.Result
	}
	if sq.Lagged() {
		return nil, fmt.Errorf("standing query lagged")
	}
	if got := patternDigest(last); got != rn.in.wantPQ {
		return nil, fmt.Errorf("standing query: %d pairs after the script, oracle %d", got.count, rn.in.wantPQ.count)
	}

	// The commits leave one dead backend each. Collect them now, so that
	// the batch phase does not pay for them in some rounds and not others.
	runtime.GC()
	cW := &checker{pool: rn.in.poolW}
	if err := rn.batchPhase(ctx, url, cW, time.Time{}, 3); err != nil {
		return nil, err
	}
	rn.hc.CloseIdleConnections()
	d, err := rn.recoverPhase(st)
	if err != nil {
		return nil, err
	}
	rn.metrics["recover_s"] = d.Seconds()
	return &roundSamples{lat: ol.lat, wall: wall, cpu: cpu}, nil
}
