package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcoal/internal/dist"
	"rcoal/internal/experiments"
)

// pollWait is the coordinator's idle-poll hint and the worker's poll
// interval. The dist defaults (250 ms) would let the race between the
// worker's first poll and the grid's registration add up to a quarter
// second to a 2-second pass.
const pollWait = 5 * time.Millisecond

// spanHeader carries the client round trip's span id and track to the
// coordinator's handler wrapper, so handler spans nest under it.
const spanHeader = "X-Perfbench-Span"

// transport is the worker's http.RoundTripper: it counts requests and
// failures (transport errors and 5xx) and, when tracing, records one
// span per round trip.
type transport struct {
	base *http.Transport
	tr   *tracer
	pass openSpan

	requests, failed atomic.Int64
	mu               sync.Mutex
	rtt              map[string][]time.Duration // by path
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	sp := t.tr.openTop("dist"+strings.ReplaceAll(path, "/", "."), t.pass)
	if t.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d,%d", sp.id, sp.track))
	}
	t.requests.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode >= 500 {
		t.failed.Add(1)
	}
	d := sp.close()
	if t.tr != nil {
		t.mu.Lock()
		t.rtt[path] = append(t.rtt[path], d)
		t.mu.Unlock()
	}
	return resp, err
}

// tracedHandler times every coordinator request — lease bookkeeping,
// journal appends with fsync, cache writes — as a child of the
// worker's round trip.
func tracedHandler(h http.Handler, tr *tracer, handlerNS *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		parent, track := 0, 0
		if v := strings.SplitN(req.Header.Get(spanHeader), ",", 2); len(v) == 2 {
			parent, _ = strconv.Atoi(v[0])
			track, _ = strconv.Atoi(v[1])
		}
		sp := tr.openOn("dist.handler", parent, track)
		h.ServeHTTP(rw, req)
		handlerNS.Add(int64(sp.close()))
	})
}

// fleetStats are what one coordinator pass measured beyond its result.
type fleetStats struct {
	wall             time.Duration // listener start to the experiment's result
	setup            time.Duration // listener start to first granted lease
	requests, failed int64
	rtt              map[string][]time.Duration
	grants, accepted int64
	handlerNS        time.Duration
	ckptRecords      int
	ckptBytes        int64
	warmRestore      time.Duration
	warmOutput       string
}

// fleetPass runs the workload's experiment through an in-process
// coordinator on a loopback listener, with one dist.Worker of the
// workload's concurrency. The journal and results cache live in a
// fresh directory under tmp. With compute nil the worker computes
// cells as the rcoal-experiments -worker binary does
// (experiments.ComputeCell); the traced pass substitutes the layer
// re-drive. With warm set, the pass ends with a warm resweep served
// from its own results cache.
func fleetPass(w workload, seed uint64, tmp string, tr *tracer, pass openSpan,
	compute func(string, experiments.Options, string) (json.RawMessage, error), warm bool) (experiments.Result, fleetStats, error) {
	var fs fleetStats
	dir, err := os.MkdirTemp(tmp, "fleet-")
	if err != nil {
		return nil, fs, err
	}
	defer os.RemoveAll(dir)
	if compute == nil {
		compute = experiments.ComputeCell
	}

	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fs, err
	}
	srv := dist.NewServer(dist.ServerConfig{PollWait: pollWait})
	var handlerNS atomic.Int64
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr, &handlerNS)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	o := w.options(seed)
	journal, err := experiments.OpenJournal(filepath.Join(dir, w.id+".journal"), w.id, o, false)
	if err != nil {
		hs.Close()
		<-served
		return nil, fs, err
	}
	cache, err := experiments.OpenCache(filepath.Join(dir, "cache"), w.id, o)
	if err != nil {
		journal.Close()
		hs.Close()
		<-served
		return nil, fs, err
	}
	o.Exec = dist.NewExec(srv, w.id, journal, cache)
	type ran struct {
		res experiments.Result
		err error
	}
	done := make(chan ran, 1)
	go func() {
		res, err := experiments.Run(w.id, o)
		done <- ran{res, err}
	}()

	rt := &transport{
		base: &http.Transport{MaxConnsPerHost: w.workers, MaxIdleConnsPerHost: w.workers},
		tr:   tr, pass: pass, rtt: map[string][]time.Duration{},
	}
	var first sync.Once
	var firstLease time.Time
	var grants atomic.Int64
	worker := &dist.Worker{
		Coordinator:  "http://" + ln.Addr().String(),
		ID:           "perfbench",
		Concurrency:  w.workers,
		Client:       &http.Client{Transport: rt},
		PollInterval: pollWait,
		Compute: func(id string, o experiments.Options, key string) (json.RawMessage, error) {
			first.Do(func() { firstLease = time.Now() })
			grants.Add(1)
			return compute(id, o, key)
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(ctx) }()

	r := <-done
	fs.wall = time.Since(start)
	srv.Drain()
	if r.err != nil {
		srv.Close()
		cancel()
	}
	werr := <-workerDone
	rt.base.CloseIdleConnections()
	shut, stop := context.WithTimeout(context.Background(), 10*time.Second)
	if hs.Shutdown(shut) != nil {
		hs.Close() // a connection outlived the grace period
	}
	stop()
	<-served
	jerr, cerr := journal.Close(), cache.Close()

	fs.setup = firstLease.Sub(start)
	fs.requests, fs.failed = rt.requests.Load(), rt.failed.Load()
	fs.rtt, fs.grants, fs.accepted = rt.rtt, grants.Load(), worker.Stats().Accepted
	fs.handlerNS = time.Duration(handlerNS.Load())
	switch {
	case r.err != nil:
		return nil, fs, r.err
	case werr != nil:
		return nil, fs, fmt.Errorf("worker: %w", werr)
	case jerr != nil:
		return nil, fs, fmt.Errorf("closing journal: %w", jerr)
	case cerr != nil:
		return nil, fs, fmt.Errorf("closing cache: %w", cerr)
	}
	if fs.ckptRecords, fs.ckptBytes, err = ledgerSize(dir); err != nil {
		return nil, fs, err
	}
	if warm {
		if fs.warmOutput, fs.warmRestore, err = warmResweep(w, seed, filepath.Join(dir, "cache")); err != nil {
			return nil, fs, err
		}
	}
	return r.res, fs, nil
}

// warmResweep reruns the experiment locally against the pass's results
// cache, so every cell is restored rather than computed.
func warmResweep(w workload, seed uint64, cacheDir string) (string, time.Duration, error) {
	o := w.options(seed)
	start := time.Now()
	cache, err := experiments.OpenCache(cacheDir, w.id, o)
	if err != nil {
		return "", 0, err
	}
	o.Cache = cache
	res, err := experiments.Run(w.id, o)
	d := time.Since(start)
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", 0, err
	}
	return output(res), d, nil
}

// ledgerSize counts the records (lines) and bytes of every journal and
// cache file the pass wrote.
func ledgerSize(dir string) (records int, size int64, err error) {
	err = filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		records += bytes.Count(b, []byte{'\n'})
		size += int64(len(b))
		return nil
	})
	return records, size, err
}
