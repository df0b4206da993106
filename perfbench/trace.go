package main

// The traced run. It feeds a workload's inputs through each layer's
// public functions, called from here, with a span around every call
// (name, start, end, parent, request id) and counters at the same
// boundaries, all kept in memory and written out as NDJSON when the run
// ends. Per-layer self time is a span's duration minus the part its
// child spans cover.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"regraph/internal/candidx"
	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/pattern"
	"regraph/internal/qlang"
	"regraph/internal/reach"
	"regraph/internal/wal"
	"regraph/internal/wire"
)

var perLayer = []metricDef{
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"candidx.lookup_us", "us"},
	{"candidx.memo_hit_ratio", "ratio"},
	{"reach.eval_us", "us"},
	{"dist.lookups_per_query", "count"},
	{"dist.closure_us", "us"},
	{"pattern.match_us", "us"},
	{"engine.queue_wait_us", "us"},
	{"engine.eval_us", "us"},
	{"server.overhead_us", "us"},
	{"router.overhead_us", "us"},
	{"runtime.alloc_kb_per_query", "KiB"},
	{"mutate.decode_us", "us"},
	{"engine.apply_ms", "ms"},
	{"dist.rebuild_ms", "ms"},
	{"candidx.patch_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.bytes_per_op", "B"},
	{"pattern.advance_ms", "ms"},
	{"engine.read_wait_us", "us"},
	{"trace.overhead_pct", "%"},
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory. A disabled tracer records nothing, so
// the same code path runs traced and untraced.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// layerTime is one span name's total self time and span count.
type layerTime struct {
	self time.Duration
	n    int
}

func (t *tracer) selfTimes() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.self += time.Duration(s.End - s.Start - child[i])
		lt.n++
		out[s.Name] = lt
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func traceDir() string {
	if d := os.Getenv("PERFBENCH_TRACES"); d != "" {
		return d
	}
	return ".bench_build/traces"
}

// countingBackend counts distance lookups through the engine's backend.
type countingBackend struct {
	be dist.Backend
	n  int64
}

func (c *countingBackend) Dist(col graph.ColorID, a, b graph.NodeID) int32 {
	c.n++
	return c.be.Dist(col, a, b)
}

func (c *countingBackend) DistScratch(col graph.ColorID, a, b graph.NodeID, s *dist.Scratch) int32 {
	c.n++
	return c.be.DistScratch(col, a, b, s)
}

func compilePQ(q *pq) *pattern.Query {
	pq, err := qlang.ParsePatternString(q.text())
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated pattern does not parse: %v\n%s", err, q.text()))
	}
	return pq
}

func patternDigest(r *pattern.Result) digest {
	return resultDigest(engine.Result{Match: r})
}

// compilePool turns pool entries into engine requests through the
// wire decoder's compile step, as the server does.
func compilePool(pool []*query) ([]engine.Request, error) {
	out := make([]engine.Request, len(pool))
	for i, q := range pool {
		var wr wire.Request
		if err := json.Unmarshal(append([]byte{'{'}, q.body...), &wr); err != nil {
			return nil, err
		}
		er, _, err := wr.Compile()
		if err != nil {
			return nil, err
		}
		out[i] = er
	}
	return out, nil
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// servedPerQuery runs whole batch rounds, alternating over the given
// URLs so that drift hits them alike, and returns each URL's median
// wall time per query and the bytes allocated per query on the first.
func (rn *run) servedPerQuery(ctx context.Context, urls []string, c *checker, rounds int) ([]time.Duration, float64, error) {
	per := make([][]float64, len(urls))
	var alloc uint64
	for i := 0; i < rounds; i++ {
		for k, url := range urls {
			a0 := allocBytes()
			d, err := batchRound(ctx, rn.hc, url, c, 0, len(c.pool))
			if err != nil {
				return nil, 0, err
			}
			if k == 0 {
				alloc += allocBytes() - a0
			}
			rn.attempted += len(c.pool)
			per[k] = append(per[k], float64(d)/float64(len(c.pool)))
			if len(urls) > 1 {
				// Another host is next: keep at most maxConns open.
				rn.hc.CloseIdleConnections()
			}
		}
	}
	out := make([]time.Duration, len(urls))
	for k := range urls {
		out[k] = time.Duration(median(per[k]))
	}
	return out, float64(alloc) / float64(rounds*len(c.pool)), rn.verdict(c)
}

// pairedRoundTrips sends every pool entry once through each of two
// URLs, one request outstanding at a time on one stream per URL, the
// two back to back in alternating order. It returns the median over
// queries of the round trip through a minus the round trip through b.
func (rn *run) pairedRoundTrips(ctx context.Context, a, b string, c *checker) (time.Duration, error) {
	sa, sb := openStream(ctx, rn.hc, a), openStream(ctx, rn.hc, b)
	defer sa.close()
	defer sb.close()
	var line []byte
	roundTrip := func(s *stream, id uint64) (time.Duration, error) {
		line = c.pool[id%uint64(len(c.pool))].appendLine(line[:0], id)
		t0 := time.Now()
		if _, err := s.w.Write(line); err != nil {
			return 0, err
		}
		resp, err := s.readLine()
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		c.checkLine(resp)
		return d, nil
	}
	diffs := make([]float64, len(c.pool))
	for i := range c.pool {
		first, second := sa, sb
		if i%2 == 1 {
			first, second = sb, sa
		}
		d1, err := roundTrip(first, uint64(i))
		if err != nil {
			return 0, err
		}
		d2, err := roundTrip(second, uint64(i))
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		diffs[i] = float64(d1 - d2)
	}
	rn.attempted += 2 * len(c.pool)
	return time.Duration(median(diffs)), rn.verdict(c)
}

// sessionBatch runs the pool through maxConns in-process sessions, as
// the server does for maxConns streams, and returns the wall time per
// query and the mean queue wait and evaluation time.
func (rn *run) sessionBatch(e *engine.Engine, pool []*query, reqs []engine.Request) (perQuery, wait, eval time.Duration, err error) {
	var mu sync.Mutex
	var errs []error
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < maxConns; k++ {
		lo, hi := len(pool)*k/maxConns, len(pool)*(k+1)/maxConns
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			s := e.Open(ctx, engine.SessionOptions{})
			go func() {
				// One submitter: ids count up from 0 in submission order.
				for i := lo; i < hi; i++ {
					if _, err := s.Submit(ctx, reqs[i]); err != nil {
						break
					}
				}
				s.Close()
			}()
			for res := range s.Results() {
				i := lo + int(res.ID)
				mu.Lock()
				wait += res.Wait
				eval += res.Elapsed
				if res.Err != nil {
					rn.failed++
					errs = append(errs, res.Err)
				} else if got := resultDigest(res); got != pool[i].want {
					errs = append(errs, fmt.Errorf("session answer differs from the oracle: %s", pool[i].body))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	n := time.Duration(len(pool))
	rn.attempted += len(pool)
	return time.Since(start) / n, wait / n, eval / n, errors.Join(errs...)
}

// layerStats are the counters a layer pass keeps: memo hits and
// lookups, and distance lookups through the backend.
type layerStats struct {
	hits, lookups, dists int64
}

// layerPass feeds every pool line through the read layers in turn:
// decode and compile, candidate lookup, evaluation (plus a closure
// probe for multi-atom RQs), and encode. It checks each answer and
// returns the pass's wall time.
func (rn *run) layerPass(tr *tracer, e *engine.Engine, pool []*query, st *layerStats) (time.Duration, error) {
	ctx := context.Background()
	g := e.Graph()
	mx := e.Matrix()
	memo := e.Cands()
	cbe := &countingBackend{be: e.Backend()}
	scratch := dist.NewScratch()
	var lines []byte
	for i, q := range pool {
		lines = q.appendLine(lines, uint64(i))
	}
	var out bytes.Buffer
	enc := wire.NewEncoder(&out)
	start := time.Now()
	dec := wire.NewDecoder(bytes.NewReader(lines))
	var errs []error
	for i, q := range pool {
		req := uint64(i)
		root := tr.begin("request", -1, req)
		sp := tr.begin("wire.decode", root, req)
		wr, err := dec.Next()
		var er engine.Request
		var kind string
		if err == nil {
			er, kind, err = wr.Compile()
		}
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("decode line %d: %w", i, err)
		}
		var res engine.Result
		count := 0
		switch {
		case er.RQ != nil:
			sp = tr.begin("candidx.lookup", root, req)
			h0, m0 := memo.Stats()
			from := memo.Candidates(er.RQ.From)
			memo.Candidates(er.RQ.To)
			h1, m1 := memo.Stats()
			tr.end(sp)
			st.hits += int64(h1 - h0)
			st.lookups += int64(h1 - h0 + m1 - m0)

			yield := func(p reach.Pair) bool {
				if q.count {
					count++
				} else {
					res.Pairs = append(res.Pairs, p)
				}
				return true
			}
			sp = tr.begin("reach.eval", root, req)
			if mx != nil {
				err = er.RQ.StreamMatrix(ctx, g, mx, memo, yield)
			} else {
				err = er.RQ.StreamBackend(ctx, g, cbe, scratch, memo, yield)
			}
			tr.end(sp)
			if atoms, ok := dist.Compile(g, er.RQ.Expr); ok && len(atoms) > 1 && err == nil {
				seeds := make([]bool, g.NumNodes())
				for _, v := range from {
					seeds[v] = true
				}
				sp = tr.begin("dist.closure", root, req)
				_, err = dist.ForwardClosureCtx(ctx, g, seeds, atoms, scratch)
				tr.end(sp)
			}
		case er.PQ != nil:
			opts := pattern.Options{Matrix: mx, Scratch: scratch, Cands: memo}
			if mx == nil {
				opts.Backend = cbe
			}
			sp = tr.begin("pattern.match", root, req)
			res.Match, err = pattern.JoinMatchCtx(ctx, g, er.PQ, opts)
			tr.end(sp)
		}
		if err != nil {
			return 0, fmt.Errorf("evaluate line %d: %w", i, err)
		}
		res.ID = req
		sp = tr.begin("wire.encode", root, req)
		out.Reset()
		resp := wire.FromResult(res, kind, er.PQ, count)
		err = enc.Encode(&resp)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		got := resultDigest(res)
		if q.count {
			got = digest{count: count}
		}
		if got.count != q.want.count || (!q.count && got != q.want) {
			errs = append(errs, fmt.Errorf("layer pass answer differs from the oracle: %s", q.body))
		}
	}
	wall := time.Since(start)
	st.dists += cbe.n
	rn.attempted += len(pool)
	return wall, errors.Join(errs...)
}

// runTraced is the traced run of one workload: every per-layer metric.
// It does a fixed amount of work rather than filling a time budget.
func runTraced(cfg *config, seed int64) (*run, error) {
	rn := &run{cfg: cfg, in: makeInputs(cfg, seed), hc: newHTTPClient(), metrics: map[string]float64{}}
	defer rn.hc.CloseIdleConnections()
	st, err := rn.setup(1)
	if err != nil {
		return rn, err
	}
	defer st.close()
	ctx := context.Background()
	pool := rn.in.pool
	c := &checker{pool: pool}
	url := st.url + "/v1/query"
	if _, err := rn.warm(ctx, url, c, time.Now().Add(time.Second)); err != nil {
		return rn, err
	}

	// Whole-stack figures: served (and routed) batches and the same
	// batch through in-process sessions.
	rounds := 5
	urls := []string{url}
	if cfg.routed {
		urls = append(urls, st.srvURL+"/v1/query")
	}
	wall, alloc, err := rn.servedPerQuery(ctx, urls, c, rounds)
	if err != nil {
		return rn, err
	}
	direct := wall[len(wall)-1]
	rn.metrics["router.overhead_us"] = 0
	if cfg.routed {
		// In a pipelined batch the router's work overlaps with evaluation
		// on the replica and hides in the wall time; one query at a time,
		// it adds to every round trip.
		rn.hc.CloseIdleConnections()
		d, err := rn.pairedRoundTrips(ctx, url, st.srvURL+"/v1/query", c)
		if err != nil {
			return rn, err
		}
		rn.metrics["router.overhead_us"] = us(d)
	}
	rn.metrics["runtime.alloc_kb_per_query"] = alloc / 1024
	reqs, err := compilePool(pool)
	if err != nil {
		return rn, err
	}
	var perQ, wait, eval []float64
	for i := 0; i < rounds; i++ {
		p, w, e, err := rn.sessionBatch(st.eng, pool, reqs)
		if err != nil {
			return rn, err
		}
		perQ, wait, eval = append(perQ, float64(p)), append(wait, float64(w)), append(eval, float64(e))
	}
	rn.metrics["server.overhead_us"] = us(direct - time.Duration(median(perQ)))
	rn.metrics["engine.queue_wait_us"] = median(wait) / 1e3
	rn.metrics["engine.eval_us"] = median(eval) / 1e3

	// The layer pipeline: a warm pass, then untraced and traced passes
	// in turn; the overhead compares their median wall times.
	tr := &tracer{t0: time.Now()}
	var ls layerStats
	if _, err := rn.layerPass(tr, st.eng, pool, &ls); err != nil {
		return rn, err
	}
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		for _, on := range []bool{false, true} {
			if on {
				tr.spans, ls = tr.spans[:0], layerStats{}
			}
			tr.on = on
			d, err := rn.layerPass(tr, st.eng, pool, &ls)
			if err != nil {
				return rn, err
			}
			if on {
				traced = append(traced, d.Seconds())
			} else {
				plain = append(plain, d.Seconds())
			}
		}
	}
	rn.metrics["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	lt := tr.selfTimes()
	perCall := func(name string) float64 {
		if lt[name].n == 0 {
			return 0
		}
		return us(lt[name].self) / float64(lt[name].n)
	}
	rn.metrics["wire.decode_us"] = perCall("wire.decode")
	rn.metrics["wire.encode_us"] = perCall("wire.encode")
	rn.metrics["candidx.lookup_us"] = perCall("candidx.lookup")
	rn.metrics["reach.eval_us"] = perCall("reach.eval")
	rn.metrics["dist.closure_us"] = perCall("dist.closure")
	rn.metrics["pattern.match_us"] = perCall("pattern.match")
	rn.metrics["candidx.memo_hit_ratio"] = float64(ls.hits) / float64(max(1, ls.lookups))
	rn.metrics["dist.lookups_per_query"] = float64(ls.dists) / float64(len(pool))

	if err := rn.tracedWrites(tr, st); err != nil {
		return rn, err
	}
	if err := tr.write(filepath.Join(traceDir(), fmt.Sprintf("%s-seed%d.ndjson", cfg.name, seed))); err != nil {
		return rn, fmt.Errorf("write trace: %w", err)
	}
	return rn, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tracedWrites applies the op script chunk by chunk through the write
// layers' public functions: mutate decode, Engine.Apply (with the
// engine's fsync=always WAL), a backend rebuild on the committed graph,
// the candidate index patch and memo carry-over, a WAL append, and the
// standing query's incremental advance. For write-mix, reads arrive at
// the workload's fixed rate on an in-process session meanwhile.
func (rn *run) tracedWrites(tr *tracer, st *stack) error {
	tr.on = true
	e := st.eng
	g0 := e.Graph()
	mm := rn.in.m0.clone()
	memo := candidx.NewMemo(g0)
	var inc *pattern.Incremental
	var standing *pq
	switch {
	case rn.in.standing != nil:
		standing = rn.in.standing
	default:
		for _, q := range rn.in.pool {
			if q.pq != nil {
				standing = q.pq
				break
			}
		}
	}
	if standing != nil {
		var err error
		if inc, err = pattern.NewIncremental(g0, compilePQ(standing)); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(tmpRoot(), "wal-trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		return err
	}
	defer w.Close()
	ws0 := st.wal.Stats()

	// Reads beside the writes (write-mix).
	stopReads := make(chan struct{})
	reopen := make(chan struct{}, rn.in.commits)
	readsDone := make(chan error, 1)
	var waits []time.Duration
	if rn.cfg.beside > 0 {
		reqs, err := compilePool(rn.in.beside)
		if err != nil {
			return err
		}
		go func() { readsDone <- rn.readsBeside(e, reqs, reopen, stopReads, &waits) }()
	} else {
		readsDone <- nil
	}

	chunk := rn.cfg.chunk
	var applyErr error
	for k := 0; k*chunk < len(rn.in.script) && applyErr == nil; k++ {
		script := rn.in.script[k*chunk : min(len(rn.in.script), (k+1)*chunk)]
		var lines []byte
		for i := range script {
			lines = append(lines, script[i].line()...)
		}
		req := uint64(k)
		root := tr.begin("commit", -1, req)
		sp := tr.begin("mutate.decode", root, req)
		ops, err := decodeOps(lines)
		tr.end(sp)
		if err != nil {
			applyErr = err
			break
		}
		chs, touched, nodesAdded, delta, err := changesOf(mm, script, e.Graph())
		if err != nil {
			applyErr = err
			break
		}
		sp = tr.begin("engine.apply", root, req)
		cm, err := e.Apply(ops)
		tr.end(sp)
		if err != nil {
			applyErr = err
			break
		}
		if cm.Applied != len(ops) || cm.Failed != 0 || cm.Gen != uint64(k+1) {
			applyErr = fmt.Errorf("commit %d: applied %d failed %d gen %d", k, cm.Applied, cm.Failed, cm.Gen)
			break
		}
		reopen <- struct{}{}
		ng := e.Graph()
		sp = tr.begin("dist.rebuild", root, req)
		if rn.cfg.backend == "matrix" {
			dist.NewMatrix(ng)
		} else {
			dist.NewTwoHop(ng)
		}
		tr.end(sp)
		sp = tr.begin("candidx.patch", root, req)
		idx := memo.Index().WithChanges(ng, chs)
		memo = memo.NextGen(ng, idx, touched, nodesAdded)
		tr.end(sp)
		sp = tr.begin("wal.append", root, req)
		err = w.Append(uint64(k+1), ops)
		tr.end(sp)
		if err != nil {
			applyErr = err
			break
		}
		if inc != nil {
			sp = tr.begin("pattern.advance", root, req)
			inc.ApplyCommitted(ng, delta)
			tr.end(sp)
		}
		tr.end(root)
	}
	close(stopReads)
	if err := errors.Join(applyErr, <-readsDone); err != nil {
		return err
	}
	rn.attempted += len(rn.in.script)

	// The layers' results must agree with the oracle's model.
	ng := e.Graph()
	if ng.NumNodes() != rn.in.mW.numNodes() || ng.NumEdges() != rn.in.mW.edges {
		return fmt.Errorf("after the script: %d nodes %d edges, model %d nodes %d edges", ng.NumNodes(), ng.NumEdges(), rn.in.mW.numNodes(), rn.in.mW.edges)
	}
	if inc != nil {
		if got, want := patternDigest(inc.Result()), digestPQ(rn.in.mW.answerPQ(standing)); got != want {
			return fmt.Errorf("incremental standing answer: %d pairs, oracle %d", got.count, want.count)
		}
	}
	n := min(len(rn.in.poolW), recoveredChecks)
	if err := checkEngine(e, rn.in.poolW[:n]); err != nil {
		return fmt.Errorf("after the script: %w", err)
	}
	rn.attempted += n

	lt := tr.selfTimes()
	perCall := func(name string, unit time.Duration) float64 {
		if lt[name].n == 0 {
			return 0
		}
		return float64(lt[name].self) / float64(unit) / float64(lt[name].n)
	}
	rn.metrics["mutate.decode_us"] = float64(lt["mutate.decode"].self) / float64(time.Microsecond) / float64(len(rn.in.script))
	rn.metrics["engine.apply_ms"] = perCall("engine.apply", time.Millisecond)
	rn.metrics["dist.rebuild_ms"] = perCall("dist.rebuild", time.Millisecond)
	rn.metrics["candidx.patch_ms"] = perCall("candidx.patch", time.Millisecond)
	rn.metrics["wal.append_us"] = perCall("wal.append", time.Microsecond)
	rn.metrics["pattern.advance_ms"] = perCall("pattern.advance", time.Millisecond)
	ws := st.wal.Stats()
	appended := ws.Appended - ws0.Appended
	rn.metrics["wal.fsyncs_per_commit"] = float64(ws.Fsyncs-ws0.Fsyncs) / float64(max(1, appended))
	rn.metrics["wal.bytes_per_op"] = float64(ws.AppendedBytes-ws0.AppendedBytes) / float64(len(rn.in.script))
	var sum time.Duration
	for _, d := range waits {
		sum += d
	}
	rn.metrics["engine.read_wait_us"] = 0
	if len(waits) > 0 {
		rn.metrics["engine.read_wait_us"] = us(sum) / float64(len(waits))
	}
	return nil
}

func decodeOps(lines []byte) ([]mutate.Op, error) {
	dec := mutate.NewDecoder(bytes.NewReader(lines))
	var ops []mutate.Op
	for {
		op, err := dec.Next()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
}

// changesOf replays one chunk onto the model and derives what the
// write layers need about it: the attribute changes and touched
// attributes for the candidate index, whether nodes were added, and
// the standing-query delta. Edge colors resolve against g, the
// generation the chunk applies to (the scripts use existing colors).
func changesOf(m *model, ops []mop, g *graph.Graph) ([]candidx.AttrChange, map[string]bool, bool, pattern.Delta, error) {
	var chs []candidx.AttrChange
	touched := map[string]bool{}
	nodesAdded := false
	var d pattern.Delta
	base := m.numNodes()
	changed := map[int]bool{}
	for i := range ops {
		o := &ops[i]
		switch o.Op {
		case "add_node":
			m.apply(o)
			v := m.byName[o.Node]
			nodesAdded = true
			d.AddedNodes = append(d.AddedNodes, graph.NodeID(v))
			for k, val := range o.Attrs {
				chs = append(chs, candidx.AttrChange{Node: graph.NodeID(v), Attr: k, New: val, HasNew: true})
				touched[k] = true
			}
		case "set_attr":
			v := m.byName[o.Node]
			for k, val := range o.Attrs {
				old, hasOld := m.attrs[v][k]
				if hasOld && old == val {
					continue
				}
				chs = append(chs, candidx.AttrChange{Node: graph.NodeID(v), Attr: k, Old: old, New: val, HasOld: hasOld, HasNew: true})
				touched[k] = true
				if v < base {
					changed[v] = true
				}
			}
			m.apply(o)
		case "add_edge", "remove_edge":
			c, ok := g.ColorID(o.Color)
			if !ok {
				return nil, nil, false, d, fmt.Errorf("script color %q is not in the graph", o.Color)
			}
			m.apply(o)
			e := pattern.DeltaEdge{From: graph.NodeID(m.byName[o.From]), To: graph.NodeID(m.byName[o.To]), Color: c}
			if o.Op == "add_edge" {
				d.AddedEdges = append(d.AddedEdges, e)
			} else {
				d.RemovedEdges = append(d.RemovedEdges, e)
			}
		}
	}
	for v := range changed {
		d.AttrChanged = append(d.AttrChanged, graph.NodeID(v))
	}
	return chs, touched, nodesAdded, d, nil
}

// readsBeside submits pool reads to in-process sessions at the
// workload's fixed rate until stop closes, collecting each result's
// queue wait. Each signal on reopen (one per commit) moves the reads to
// a new session, and every answer is checked against the model of the
// generation its session pinned.
func (rn *run) readsBeside(e *engine.Engine, reqs []engine.Request, reopen, stop <-chan struct{}, waits *[]time.Duration) error {
	ctx := context.Background()
	var mu sync.Mutex
	var errs []error
	var readers sync.WaitGroup
	n := 0
	// open starts a session whose first submission is read base.
	open := func(base int) *engine.Session {
		s := e.Open(ctx, engine.SessionOptions{})
		want := rn.in.besideByGen[s.Generation()]
		readers.Add(1)
		go func() {
			defer readers.Done()
			for res := range s.Results() {
				i := (base + int(res.ID)) % len(reqs) // one submitter: ids are submission ordinals
				mu.Lock()
				n++
				*waits = append(*waits, res.Wait)
				switch {
				case res.Err != nil:
					rn.failed++
					errs = append(errs, res.Err)
				case resultDigest(res) != want[i].want:
					errs = append(errs, fmt.Errorf("read beside writes at generation %d differs from the oracle: %s", s.Generation(), want[i].body))
				}
				mu.Unlock()
			}
		}()
		return s
	}
	s := open(0)
	start := time.Now()
send:
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rn.cfg.beside * float64(time.Second)))
		for wait := true; wait; {
			select {
			case <-stop:
				break send
			case <-reopen:
				s.Close()
				s = open(i)
			case <-time.After(time.Until(due)):
				wait = false
			}
		}
		if _, err := s.Submit(ctx, reqs[i%len(reqs)]); err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			break
		}
	}
	s.Close()
	readers.Wait()
	rn.attempted += n
	return errors.Join(errs...)
}
