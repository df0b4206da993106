package main

// The benchmark's client side: NDJSON streams over at most two
// loopback connections, and a response checker that compares each
// answer's digest with the oracle's without decoding whole lines.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// maxConns is the number of client connections the benchmark opens:
// one per vCPU of the reference machine.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// stream is one full-duplex NDJSON POST: lines written to w reach the
// server as they are written; response lines are read from the body.
type stream struct {
	w      *io.PipeWriter
	respCh chan streamResp
	got    bool // the response (or the request's error) has been taken
	body   io.ReadCloser
	br     *bufio.Reader
}

type streamResp struct {
	resp *http.Response
	err  error
}

func openStream(ctx context.Context, hc *http.Client, url string) *stream {
	pr, pw := io.Pipe()
	s := &stream{w: pw, respCh: make(chan streamResp, 1)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		s.respCh <- streamResp{err: err}
		return s
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go func() {
		resp, err := hc.Do(req)
		if err != nil {
			pr.CloseWithError(err)
		}
		s.respCh <- streamResp{resp, err}
	}()
	return s
}

// readLine returns the next response line (without its newline). The
// slice is valid until the next call. io.EOF ends the stream.
func (s *stream) readLine() ([]byte, error) {
	if s.br == nil {
		if s.got {
			return nil, io.ErrUnexpectedEOF
		}
		r := <-s.respCh
		s.got = true
		if r.err != nil {
			return nil, r.err
		}
		if r.resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(r.resp.Body, 512))
			r.resp.Body.Close()
			return nil, fmt.Errorf("HTTP %s: %s", r.resp.Status, bytes.TrimSpace(b))
		}
		s.body = r.resp.Body
		s.br = bufio.NewReaderSize(r.resp.Body, 256<<10)
	}
	for {
		line, err := s.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A long answer: copy what the buffer holds before reading on
			// overwrites it, then accumulate the rest.
			line = append([]byte(nil), line...)
			rest, err2 := s.br.ReadBytes('\n')
			line = append(line, rest...)
			err = err2
		}
		if len(bytes.TrimSpace(line)) > 0 {
			return bytes.TrimRight(line, "\r\n"), nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// close ends the upload and, once the server has finished the stream,
// releases the connection for reuse.
func (s *stream) close() {
	s.w.Close()
	if s.body != nil {
		io.Copy(io.Discard, s.body)
		s.body.Close()
		return
	}
	if s.got {
		return
	}
	s.got = true
	if r := <-s.respCh; r.err == nil {
		io.Copy(io.Discard, r.resp.Body)
		r.resp.Body.Close()
	}
}

// ---- response checking -----------------------------------------------------

// respFields is what the checker extracts from one response line.
type respFields struct {
	id     uint64
	count  int
	pairs  digest
	hasErr bool
	errMsg string
}

// parseResponse scans a response line for its id, count, error and
// pairs. Pairs are folded into a digest (tagged by the ordinal of their
// "pairs" array, which is the pattern edge for a PQ), so answers compare
// whatever order the server streams them in.
func parseResponse(line []byte) (respFields, error) {
	var f respFields
	if i := bytes.Index(line, []byte(`"error":`)); i >= 0 {
		f.hasErr = true
		f.errMsg = string(line[i:min(len(line), i+200)])
	}
	id, ok := intAfter(line, `"id":`)
	if !ok {
		return f, fmt.Errorf("response without id: %.200s", line)
	}
	f.id = uint64(id)
	c, ok := intAfter(line, `"count":`)
	if !ok && !f.hasErr {
		return f, fmt.Errorf("response without count: %.200s", line)
	}
	f.count = int(c)
	key := []byte(`"pairs":[`)
	rest := line
	for edge := 0; ; edge++ {
		i := bytes.Index(rest, key)
		if i < 0 {
			break
		}
		rest = rest[i+len(key):]
		// rest: [a,b],[c,d]] or ]
		for len(rest) > 0 && rest[0] == '[' {
			a, n1 := scanInt(rest[1:])
			if n1 == 0 || 1+n1 >= len(rest) || rest[1+n1] != ',' {
				return f, fmt.Errorf("malformed pair in %.200s", line)
			}
			b, n2 := scanInt(rest[2+n1:])
			if n2 == 0 || 2+n1+n2 >= len(rest) || rest[2+n1+n2] != ']' {
				return f, fmt.Errorf("malformed pair in %.200s", line)
			}
			f.pairs.add(edge, a, b)
			rest = rest[3+n1+n2:]
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	return f, nil
}

func intAfter(line []byte, key string) (int64, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, false
	}
	v, n := scanInt(line[i+len(key):])
	return v, n > 0
}

func scanInt(b []byte) (int64, int) {
	var v int64
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + int64(b[n]-'0')
		n++
	}
	return v, n
}

// checker compares responses with the oracle. Ids index the pool
// modulo its size.
type checker struct {
	pool []*query
	// byGen, when set, holds the pool's answers on each generation's
	// model, for a stream whose session pinned a generation the client
	// cannot see. gens is the set of generations (bit g) on whose model
	// every answer so far is right; an answer that empties it is wrong.
	byGen [][]*query
	gens  uint64

	mu       sync.Mutex
	failed   int // error responses not yet moved to the run's tally
	wrong    int
	firstBad string
}

// checkLine verifies one response line and returns its pool index.
func (c *checker) checkLine(line []byte) (id uint64, ok bool) {
	f, err := parseResponse(line)
	bad := ""
	switch {
	case err != nil:
		bad = err.Error()
	case f.hasErr:
		bad = "error response: " + f.errMsg
	case c.byGen != nil:
		i := f.id % uint64(len(c.pool))
		var keep uint64
		c.mu.Lock()
		for g, qs := range c.byGen {
			if c.gens&(1<<g) != 0 && answers(qs[i], f) {
				keep |= 1 << g
			}
		}
		if keep != 0 {
			c.gens = keep
		}
		c.mu.Unlock()
		if keep == 0 {
			bad = fmt.Sprintf("id %d: no generation the stream could have pinned has this answer (%d pairs): %s", f.id, f.count, c.pool[i].body)
		}
	default:
		q := c.pool[f.id%uint64(len(c.pool))]
		switch {
		case f.count != q.want.count:
			bad = fmt.Sprintf("id %d: count %d, oracle %d: %s", f.id, f.count, q.want.count, q.body)
		case !q.count && f.pairs != q.want:
			bad = fmt.Sprintf("id %d: pairs differ from the oracle (%d pairs): %s", f.id, q.want.count, q.body)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if bad != "" {
		if f.hasErr {
			c.failed++
		} else {
			c.wrong++
		}
		if c.firstBad == "" {
			c.firstBad = bad
		}
		return f.id, false
	}
	return f.id, true
}

// answers reports whether a response carries q's oracle answer.
func answers(q *query, f respFields) bool {
	return f.count == q.want.count && (q.count || f.pairs == q.want)
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstBad != "" {
		return fmt.Errorf("%d wrong answers or failed requests; first: %s", c.wrong+c.failed, c.firstBad)
	}
	return nil
}

// ---- request patterns ------------------------------------------------------

// batchRound sends pool entries [0, n) once, split over maxConns
// streams, each written without waiting for answers, and checks every
// response. It returns the round's wall time.
func batchRound(ctx context.Context, hc *http.Client, url string, c *checker, base uint64, n int) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, maxConns)
	for k := 0; k < maxConns; k++ {
		lo, hi := n*k/maxConns, n*(k+1)/maxConns
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			s := openStream(ctx, hc, url)
			go func() {
				bw := bufio.NewWriterSize(s.w, 64<<10)
				var line []byte
				for i := lo; i < hi; i++ {
					id := base + uint64(i)
					line = c.pool[id%uint64(len(c.pool))].appendLine(line[:0], id)
					if _, err := bw.Write(line); err != nil {
						return
					}
				}
				if bw.Flush() == nil {
					s.w.Close()
				}
			}()
			got := 0
			for {
				line, err := s.readLine()
				if err == io.EOF {
					break
				}
				if err != nil {
					errs[k] = err
					break
				}
				c.checkLine(line)
				got++
			}
			s.close()
			if errs[k] == nil && got != hi-lo {
				errs[k] = fmt.Errorf("stream answered %d of %d requests", got, hi-lo)
			}
		}(k, lo, hi)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// interactive runs maxConns clients, each with one request outstanding
// on its own stream, until the deadline, and returns every round-trip
// latency. Client k starts at pool offset k·len/maxConns.
func interactive(ctx context.Context, hc *http.Client, url string, c *checker, until time.Time) ([]time.Duration, int, error) {
	var mu sync.Mutex
	var lat []time.Duration
	var wg sync.WaitGroup
	errs := make([]error, maxConns)
	sent := make([]int, maxConns)
	for k := 0; k < maxConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := openStream(ctx, hc, url)
			defer s.close()
			var mine []time.Duration
			var line []byte
			next := uint64(k * len(c.pool) / maxConns)
			for time.Now().Before(until) {
				line = c.pool[next%uint64(len(c.pool))].appendLine(line[:0], next)
				t0 := time.Now()
				if _, err := s.w.Write(line); err != nil {
					errs[k] = err
					break
				}
				resp, err := s.readLine()
				if err != nil {
					errs[k] = err
					break
				}
				mine = append(mine, time.Since(t0))
				sent[k]++
				c.checkLine(resp)
				next++
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	return lat, sent[0] + sent[1], errors.Join(errs...)
}

// openLoop sends pool entries at a fixed rate until stop closes,
// timing each answer from its scheduled send (so a stall that delays
// later sends is charged to them), and returns the latencies, the
// number sent, how late the sender ran at worst, and one checker per
// stream it used. It sends on one stream at a time. Each generation
// that arrives on reopen ends that stream and opens a new one, whose
// session pins that generation or a later one; its answers are checked
// against byGen from that generation on. It closes ready once the first
// answer is in, when the first stream's session exists.
func openLoop(ctx context.Context, hc *http.Client, url string, byGen [][]*query, rate float64, reopen <-chan uint64, stop <-chan struct{}, ready chan<- struct{}) ([]time.Duration, int, time.Duration, []*checker, error) {
	var readyOnce sync.Once
	defer readyOnce.Do(func() { close(ready) })
	var mu sync.Mutex
	var dues []time.Time // scheduled send time by id
	var lat []time.Duration
	var errs []error
	var checkers []*checker
	var readers sync.WaitGroup
	// open starts a stream pinned at generation lo or later, with a
	// reader that checks and times its answers until the stream ends.
	open := func(lo uint64) *stream {
		s := openStream(ctx, hc, url)
		c := &checker{pool: byGen[0], byGen: byGen, gens: ^uint64(0) << lo}
		mu.Lock()
		checkers = append(checkers, c)
		mu.Unlock()
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer s.close()
			for {
				resp, err := s.readLine()
				if err == io.EOF {
					return
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				now := time.Now()
				readyOnce.Do(func() { close(ready) })
				id, _ := c.checkLine(resp)
				mu.Lock()
				if id < uint64(len(dues)) {
					lat = append(lat, now.Sub(dues[id]))
				}
				mu.Unlock()
			}
		}()
		return s
	}

	var worstLag time.Duration
	s := open(0)
	start := time.Now()
	var line []byte
send:
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		for wait := true; wait; {
			select {
			case <-stop:
				break send
			case lo := <-reopen:
				s.w.Close()
				s = open(lo)
			case <-time.After(time.Until(due)):
				wait = false
			}
		}
		if lag := time.Since(due); lag > worstLag {
			worstLag = lag
		}
		line = byGen[0][i%len(byGen[0])].appendLine(line[:0], uint64(i))
		mu.Lock()
		dues = append(dues, due)
		mu.Unlock()
		if _, err := s.w.Write(line); err != nil {
			break
		}
	}
	s.w.Close()
	readers.Wait()
	err := errors.Join(errs...)
	if err == nil && len(lat) != len(dues) {
		err = fmt.Errorf("open loop: %d answers for %d requests", len(lat), len(dues))
	}
	return lat, len(dues), worstLag, checkers, err
}

// quantile returns the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.999999) - 1
	return ds[max(0, min(i, len(ds)-1))]
}
