package main

// The served stack, started in-process on loopback: an engine with a
// write-ahead log, rgserve's server over it, and for the routed
// workload rgrouter's router in front of it.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"regraph/internal/engine"
	"regraph/internal/graph"
	"regraph/internal/router"
	"regraph/internal/server"
	"regraph/internal/wal"
)

type stack struct {
	cfg    *config
	eng    *engine.Engine
	wal    *wal.WAL
	walDir string
	srv    *server.Server
	rt     *router.Router

	// srvURL is the server's base URL; url is where the workload's
	// clients send reads (the router when the workload routes).
	srvURL, url string
	served      []chan error
}

// tmpRoot is where WAL directories live: inside the checkout.
func tmpRoot() string {
	if d := os.Getenv("PERFBENCH_TMP"); d != "" {
		return d
	}
	return ".bench_build/tmp"
}

// startStack builds the graph, the engine and its backend, opens a
// fresh WAL, and starts the listeners. Everything it does is set-up
// time.
func startStack(cfg *config, seed int64) (*stack, error) {
	g := cfg.graph(seed)
	if err := os.MkdirAll(tmpRoot(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot(), "wal-")
	if err != nil {
		return nil, err
	}
	st := &stack{cfg: cfg, walDir: dir}
	if st.wal, err = wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}); err != nil {
		st.close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	opts := cfg.engineOpts()
	opts.WAL = st.wal
	if st.eng, err = engine.New(g, opts); err != nil {
		st.close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	if kind := st.eng.BackendKind(); kind != cfg.backend {
		st.close()
		return nil, fmt.Errorf("engine picked backend %q, the workload needs %q", kind, cfg.backend)
	}
	st.srv = server.New(st.eng, server.Options{MutateBatch: cfg.chunk})
	if st.srvURL, err = st.serve(st.srv.Serve); err != nil {
		st.close()
		return nil, err
	}
	// Wait for the server itself, not only the router in front of it:
	// a Shutdown that runs before Serve has started leaves the later
	// Serve accepting forever.
	if err := waitReady(st.srvURL); err != nil {
		st.close()
		return nil, err
	}
	st.url = st.srvURL
	if cfg.routed {
		st.rt, err = router.New(router.Options{Replicas: []string{st.srvURL}})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("router: %w", err)
		}
		if st.url, err = st.serve(st.rt.Serve); err != nil {
			st.close()
			return nil, err
		}
		if err := waitReady(st.url); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func (st *stack) serve(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	st.served = append(st.served, done)
	go func() { done <- serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// waitReady polls /readyz until the listener answers 200.
func waitReady(url string) error {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close shuts the listeners down, closes the WAL and deletes its
// directory.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if st.rt != nil {
		if err := st.rt.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("router shutdown: %w", err))
		}
		st.rt = nil
	}
	if st.srv != nil {
		if err := st.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server shutdown: %w", err))
		}
		st.srv = nil
	}
	for _, done := range st.served {
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	st.served = nil
	if st.wal != nil {
		if err := st.wal.Close(); err != nil {
			errs = append(errs, fmt.Errorf("wal close: %w", err))
		}
		st.wal = nil
	}
	os.RemoveAll(st.walDir)
	return errors.Join(errs...)
}

// recoverEngine rebuilds a serving engine from the WAL in dir and the
// seed graph, as a restarted rgserve does.
func recoverEngine(cfg *config, dir string, seed *graph.Graph) (*engine.Engine, *wal.WAL, error) {
	w, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		return nil, nil, err
	}
	e, _, err := engine.Recover(w, seed, cfg.engineOpts())
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	return e, w, nil
}
